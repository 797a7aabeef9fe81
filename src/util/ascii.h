#ifndef APLUS_UTIL_ASCII_H_
#define APLUS_UTIL_ASCII_H_

namespace aplus {

// ASCII character classes for the query and DDL text front ends. Each
// gives the same answer as its <cctype> counterpart under the "C"
// locale, which the engine never changes, without the locale lookup:
// bytes >= 0x80 belong to no class.

inline constexpr bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

inline constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

inline constexpr bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

inline constexpr char AsciiToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace aplus

#endif  // APLUS_UTIL_ASCII_H_
