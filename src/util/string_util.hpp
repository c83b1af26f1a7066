// Small string helpers shared by the parsers and pretty printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cmc {

/// Join the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// Parse an unsigned decimal integer: digits only (no sign, no space),
/// no larger than UINT64_MAX.  *out is written only on success.
bool parseUint(std::string_view text, std::uint64_t* out);

/// Render `n` with thousands separators ("1234567" -> "1,234,567").
std::string withCommas(std::uint64_t n);

}  // namespace cmc
