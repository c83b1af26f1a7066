#include "smv/lexer.hpp"

#include <array>

#include "util/common.hpp"

namespace cmc::smv {

namespace {

/// Character classes, one table lookup per character.
enum CharClass : unsigned char {
  kSpace = 1,       ///< what std::isspace accepts in the C locale
  kIdentStart = 2,  ///< letters and '_'
  kIdentPart = 4,   ///< letters, digits, '_' and '.'
  kDigit = 8,
};

constexpr std::array<unsigned char, 256> makeClasses() {
  std::array<unsigned char, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentPart;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentPart;
  for (int c = '0'; c <= '9'; ++c) t[c] = kIdentPart | kDigit;
  t['_'] = kIdentStart | kIdentPart;
  t['.'] = kIdentPart;
  return t;
}

constexpr std::array<unsigned char, 256> kClasses = makeClasses();

bool is(char c, CharClass cls) {
  return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> out;
  // Line and column come from the current line's start offset.
  int line = 1;
  std::size_t lineStart = 0;
  std::size_t i = 0;
  const auto push = [&](TokenKind kind, std::size_t begin, std::size_t end) {
    out.push_back(Token{kind, text.substr(begin, end - begin), line,
                        static_cast<int>(begin - lineStart) + 1, begin});
  };

  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      lineStart = ++i;
      continue;
    }
    if (is(c, kSpace)) {
      ++i;
      continue;
    }
    // Comment: -- to end of line.
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    const std::size_t begin = i;
    if (is(c, kIdentStart)) {
      // ".." belongs to range syntax, not identifiers.
      while (i < text.size() && is(text[i], kIdentPart) &&
             !(text[i] == '.' && i + 1 < text.size() && text[i + 1] == '.')) {
        ++i;
      }
      push(TokenKind::Ident, begin, i);
      continue;
    }
    if (is(c, kDigit)) {
      while (i < text.size() && is(text[i], kDigit)) ++i;
      push(TokenKind::Number, begin, i);
      continue;
    }
    const std::string_view two = text.substr(i, 2);
    TokenKind kind;
    std::size_t length = 2;
    if (text.substr(i, 3) == "<->") {
      kind = TokenKind::Iff;
      length = 3;
    } else if (two == ":=") {
      kind = TokenKind::Assign;
    } else if (two == "!=") {
      kind = TokenKind::Neq;
    } else if (two == "->") {
      kind = TokenKind::Implies;
    } else if (two == "..") {
      kind = TokenKind::DotDot;
    } else {
      length = 1;
      switch (c) {
        case ':': kind = TokenKind::Colon; break;
        case ';': kind = TokenKind::Semicolon; break;
        case ',': kind = TokenKind::Comma; break;
        case '{': kind = TokenKind::LBrace; break;
        case '}': kind = TokenKind::RBrace; break;
        case '(': kind = TokenKind::LParen; break;
        case ')': kind = TokenKind::RParen; break;
        case '[': kind = TokenKind::LBracket; break;
        case ']': kind = TokenKind::RBracket; break;
        case '=': kind = TokenKind::Eq; break;
        case '&': kind = TokenKind::And; break;
        case '|': kind = TokenKind::Or; break;
        case '!': kind = TokenKind::Not; break;
        default:
          throw ParseError(std::string("illegal character '") + c + "'", line,
                           static_cast<int>(begin - lineStart) + 1);
      }
    }
    i += length;
    push(kind, begin, i);
  }
  push(TokenKind::End, text.size(), text.size());
  return out;
}

std::string tokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::Ident: return "identifier";
    case TokenKind::Number: return "number";
    case TokenKind::Assign: return "':='";
    case TokenKind::Colon: return "':'";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::Comma: return "','";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::Eq: return "'='";
    case TokenKind::Neq: return "'!='";
    case TokenKind::And: return "'&'";
    case TokenKind::Or: return "'|'";
    case TokenKind::Not: return "'!'";
    case TokenKind::Implies: return "'->'";
    case TokenKind::Iff: return "'<->'";
    case TokenKind::DotDot: return "'..'";
    case TokenKind::End: return "end of input";
  }
  return "?";
}

}  // namespace cmc::smv
