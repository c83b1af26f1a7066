#include "smv/parser.hpp"

#include "ctl/parser.hpp"
#include "smv/lexer.hpp"
#include "util/common.hpp"

namespace cmc::smv {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  std::vector<Module> parseProgram() {
    std::vector<Module> modules;
    while (!atEnd()) {
      modules.push_back(parseModule());
    }
    if (modules.empty()) {
      fail(peek(), "expected at least one MODULE");
    }
    return modules;
  }

  Module parseModule() {
    Module mod;
    expectIdent("MODULE");
    mod.name = expectKind(TokenKind::Ident).text;
    while (!atEnd()) {
      if (peek().kind == TokenKind::Ident && peek().text == "MODULE") {
        break;  // next module begins
      }
      const Token& section = expectKind(TokenKind::Ident);
      if (section.text == "VAR") {
        parseVarSection(mod);
      } else if (section.text == "DEFINE") {
        parseDefineSection(mod);
      } else if (section.text == "ASSIGN") {
        parseAssignSection(mod);
      } else if (section.text == "INIT") {
        mod.initConstraints.push_back(parseExpression());
        eatOptionalSemicolon();
      } else if (section.text == "TRANS") {
        mod.transConstraints.push_back(parseExpression());
        eatOptionalSemicolon();
      } else if (section.text == "SPEC") {
        mod.specs.push_back(ctl::parse(rawSectionBody()));
      } else if (section.text == "FAIRNESS") {
        mod.fairness.push_back(ctl::parse(rawSectionBody()));
      } else {
        fail(section, "expected a section keyword (VAR, ASSIGN, DEFINE, "
                      "INIT, TRANS, SPEC, FAIRNESS), got '" +
                          std::string(section.text) + "'");
      }
    }
    return mod;
  }

  ExprPtr parseBareExpression() {
    ExprPtr e = parseExpression();
    if (!atEnd()) fail(peek(), "unexpected trailing input");
    return e;
  }

 private:
  [[noreturn]] void fail(const Token& tok, const std::string& what) const {
    throw ParseError(what, tok.line, tok.column);
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  bool atEnd() const { return peek().kind == TokenKind::End; }

  const Token& advance() {
    const Token& tok = tokens_[pos_];
    if (tok.kind != TokenKind::End) ++pos_;
    return tok;
  }

  bool eat(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }

  bool eatIdent(std::string_view text) {
    if (peek().kind == TokenKind::Ident && peek().text == text) {
      advance();
      return true;
    }
    return false;
  }

  const Token& expectKind(TokenKind kind) {
    if (peek().kind != kind) {
      fail(peek(), "expected " + tokenKindName(kind) + ", got '" +
                       std::string(peek().text) + "'");
    }
    return advance();
  }

  void expectIdent(std::string_view text) {
    const Token& tok = expectKind(TokenKind::Ident);
    if (tok.text != text) {
      fail(tok, "expected '" + std::string(text) + "', got '" +
                    std::string(tok.text) + "'");
    }
  }

  void eatOptionalSemicolon() { eat(TokenKind::Semicolon); }

  bool atSectionKeyword() const {
    if (peek().kind != TokenKind::Ident) return false;
    const std::string_view t = peek().text;
    return t == "MODULE" || t == "VAR" || t == "DEFINE" || t == "ASSIGN" ||
           t == "INIT" || t == "TRANS" || t == "SPEC" || t == "FAIRNESS";
  }

  /// Raw source span from the current token up to (excluding) the next
  /// top-level section keyword; advances past it.  Used for SPEC/FAIRNESS,
  /// whose bodies use CTL syntax rather than SMV expressions.
  std::string rawSectionBody() {
    const std::size_t begin = peek().offset;
    while (!atEnd() && !atSectionKeyword()) advance();
    const std::size_t end = peek().offset;
    std::string body(text_.substr(begin, end - begin));
    // Strip SMV comments so the CTL parser does not see them.
    std::string clean;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i] == '-' && i + 1 < body.size() && body[i + 1] == '-') {
        while (i < body.size() && body[i] != '\n') ++i;
        if (i < body.size()) clean.push_back('\n');
        continue;
      }
      clean.push_back(body[i]);
    }
    return clean;
  }

  // ---- Sections -----------------------------------------------------------

  void parseVarSection(Module& mod) {
    // VAR entries: ident ':' type ';'  — repeated until a section keyword.
    while (!atEnd() && !atSectionKeyword()) {
      VarDecl decl;
      decl.name = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::Colon);
      decl.type = parseType();
      expectKind(TokenKind::Semicolon);
      mod.vars.push_back(std::move(decl));
    }
  }

  TypeDecl parseType() {
    TypeDecl type;
    if (eatIdent("boolean")) {
      type.kind = TypeDecl::Kind::Bool;
      return type;
    }
    if (eat(TokenKind::LBrace)) {
      type.kind = TypeDecl::Kind::Enum;
      for (;;) {
        const Token& tok = advance();
        if (tok.kind != TokenKind::Ident && tok.kind != TokenKind::Number) {
          fail(tok, "expected enum value");
        }
        type.values.emplace_back(tok.text);
        if (eat(TokenKind::RBrace)) break;
        expectKind(TokenKind::Comma);
      }
      return type;
    }
    if (peek().kind == TokenKind::Number) {
      type.kind = TypeDecl::Kind::Range;
      type.lo = std::stol(std::string(advance().text));
      expectKind(TokenKind::DotDot);
      type.hi = std::stol(std::string(expectKind(TokenKind::Number).text));
      if (type.hi < type.lo) {
        fail(peek(), "empty range type");
      }
      return type;
    }
    fail(peek(), "expected a type (boolean, {..}, or lo..hi)");
  }

  void parseDefineSection(Module& mod) {
    while (!atEnd() && !atSectionKeyword()) {
      Define def;
      def.name = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::Assign);
      def.expr = parseExpression();
      expectKind(TokenKind::Semicolon);
      mod.defines.push_back(std::move(def));
    }
  }

  void parseAssignSection(Module& mod) {
    while (!atEnd() && !atSectionKeyword()) {
      Assign assign;
      if (eatIdent("init")) {
        assign.kind = Assign::Kind::Init;
      } else if (eatIdent("next")) {
        assign.kind = Assign::Kind::Next;
      } else {
        fail(peek(), "expected init(..) or next(..) assignment");
      }
      expectKind(TokenKind::LParen);
      assign.var = expectKind(TokenKind::Ident).text;
      expectKind(TokenKind::RParen);
      expectKind(TokenKind::Assign);
      assign.expr = parseExpression();
      expectKind(TokenKind::Semicolon);
      mod.assigns.push_back(std::move(assign));
    }
  }

  // ---- Expressions --------------------------------------------------------

  ExprPtr parseExpression() { return parseIff(); }

  ExprPtr parseIff() {
    ExprPtr lhs = parseImplies();
    while (eat(TokenKind::Iff)) {
      lhs = mkBinary(ExprKind::Iff, lhs, parseImplies());
    }
    return lhs;
  }

  ExprPtr parseImplies() {
    ExprPtr lhs = parseOr();
    if (eat(TokenKind::Implies)) {
      return mkBinary(ExprKind::Implies, lhs, parseImplies());
    }
    return lhs;
  }

  ExprPtr parseOr() {
    ExprPtr lhs = parseAnd();
    while (eat(TokenKind::Or)) {
      lhs = mkBinary(ExprKind::Or, lhs, parseAnd());
    }
    return lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr lhs = parseEquality();
    while (eat(TokenKind::And)) {
      lhs = mkBinary(ExprKind::And, lhs, parseEquality());
    }
    return lhs;
  }

  ExprPtr parseEquality() {
    ExprPtr lhs = parseUnary();
    if (eat(TokenKind::Eq)) {
      return mkBinary(ExprKind::Eq, lhs, parseUnary());
    }
    if (eat(TokenKind::Neq)) {
      return mkBinary(ExprKind::Neq, lhs, parseUnary());
    }
    return lhs;
  }

  ExprPtr parseUnary() {
    if (eat(TokenKind::Not)) {
      return mkUnary(ExprKind::Not, parseUnary());
    }
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    const Token& tok = peek();
    if (eat(TokenKind::LParen)) {
      ExprPtr e = parseExpression();
      expectKind(TokenKind::RParen);
      return e;
    }
    if (eat(TokenKind::LBrace)) {
      std::vector<ExprPtr> elems;
      for (;;) {
        elems.push_back(parseExpression());
        if (eat(TokenKind::RBrace)) break;
        expectKind(TokenKind::Comma);
      }
      return mkSet(std::move(elems));
    }
    if (tok.kind == TokenKind::Number) {
      advance();
      return mkValue(std::string(tok.text));
    }
    if (tok.kind == TokenKind::Ident) {
      if (tok.text == "case") {
        return parseCase();
      }
      if (tok.text == "next" && peek(1).kind == TokenKind::LParen) {
        advance();  // next
        advance();  // (
        std::string name(expectKind(TokenKind::Ident).text);
        expectKind(TokenKind::RParen);
        return mkNextRef(std::move(name));
      }
      advance();
      // Variable, define, or enum literal; resolved during elaboration.
      return mkVarRef(std::string(tok.text));
    }
    fail(tok, "expected an expression, got '" + std::string(tok.text) + "'");
  }

  ExprPtr parseCase() {
    expectIdent("case");
    std::vector<CaseBranch> branches;
    while (!eatIdent("esac")) {
      CaseBranch branch;
      branch.cond = parseExpression();
      expectKind(TokenKind::Colon);
      branch.value = parseExpression();
      expectKind(TokenKind::Semicolon);
      branches.push_back(std::move(branch));
    }
    if (branches.empty()) {
      fail(peek(), "empty case expression");
    }
    return mkCase(std::move(branches));
  }

  std::string_view text_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Module parseModule(std::string_view text) {
  return Parser(text, tokenize(text)).parseModule();
}

std::vector<Module> parseProgram(std::string_view text) {
  return Parser(text, tokenize(text)).parseProgram();
}

ExprPtr parseExpr(std::string_view text) {
  return Parser(text, tokenize(text)).parseBareExpression();
}

}  // namespace cmc::smv
