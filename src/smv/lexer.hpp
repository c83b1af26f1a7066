// Tokenizer for the SMV subset.  Comments run from "--" to end of line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cmc::smv {

enum class TokenKind {
  Ident,     ///< identifiers and keywords (keyword discrimination in parser)
  Number,    ///< decimal integer
  Assign,    ///< :=
  Colon,
  Semicolon,
  Comma,
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Eq,        ///< =
  Neq,       ///< !=
  And,       ///< &
  Or,        ///< |
  Not,       ///< !
  Implies,   ///< ->
  Iff,       ///< <->
  DotDot,    ///< ..
  End,       ///< end of input
};

struct Token {
  TokenKind kind;
  /// The token's characters: a view into the tokenized text, so valid only
  /// while that text is.
  std::string_view text;
  int line = 1;
  int column = 1;
  std::size_t offset = 0;  ///< byte offset of the token's first character
};

/// Tokenize the whole input; throws cmc::ParseError on illegal characters.
/// A synthetic End token terminates the stream.  The tokens view `text`,
/// which must outlive them.
std::vector<Token> tokenize(std::string_view text);

/// Human-readable token-kind name (for error messages).
std::string tokenKindName(TokenKind kind);

}  // namespace cmc::smv
