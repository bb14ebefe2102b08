// Test-side JSON reader for what the telemetry layer writes: metrics JSONL
// rows (telemetry/export.hpp) and chrome://tracing documents
// (telemetry/spans.hpp). A strict little parser that flattens a document
// into "/"-joined paths — object keys and array indices — so a test can
// check that output is well-formed, decode escaped strings and compare a
// row's sections key by key. true/false/null are accepted but not recorded,
// and \u escapes are accepted only below U+0080.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace ffsva::telemetry::testing {

struct ParsedJson {
  std::map<std::string, double> numbers;       ///< "counters/sdd.in" -> 42
  std::map<std::string, std::string> strings;  ///< "label" -> decoded text

  /// Names one level below the top-level key `section` ("counters",
  /// "rates", "gauges", "hist"), sorted.
  std::set<std::string> keys(const std::string& section) const {
    const std::string prefix = section + "/";
    std::set<std::string> out;
    for (const auto& [path, v] : numbers) {
      if (path.compare(0, prefix.size(), prefix) != 0) continue;
      const std::string rest = path.substr(prefix.size());
      out.insert(rest.substr(0, rest.find('/')));
    }
    return out;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  /// The flattened document, or nullopt unless the whole input is one
  /// valid JSON value.
  std::optional<ParsedJson> parse() {
    ParsedJson doc;
    if (!value("", doc)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return doc;
  }

 private:
  bool value(const std::string& path, ParsedJson& doc) {
    skip_ws();
    switch (peek()) {
      case '{': return container('}', path, doc);
      case '[': return container(']', path, doc);
      case '"': return string(doc.strings[path]);
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number(doc.numbers[path]);
    }
  }

  /// An object (close '}': "key": value members) or an array (close ']':
  /// values keyed by their index).
  bool container(char close, const std::string& prefix, ParsedJson& doc) {
    ++pos_;  // the opening bracket
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return true;
    }
    for (int index = 0;; ++index) {
      skip_ws();
      std::string key = std::to_string(index);
      if (close == '}') {
        key.clear();
        if (!string(key)) return false;
        skip_ws();
        if (peek() != ':') return false;
        ++pos_;
      }
      if (!value(prefix.empty() ? key : prefix + "/" + key, doc)) return false;
      skip_ws();
      const char next = peek();
      if (next != ',' && next != close) return false;
      ++pos_;
      if (next == close) return true;
    }
  }

  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // must be escaped
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      switch (const char e = s_[pos_++]) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i, ++pos_) {
            const int h = std::tolower(static_cast<unsigned char>(peek()));
            if (!std::isxdigit(h)) return false;
            const int digit = std::isdigit(h) ? h - '0' : h - 'a' + 10;
            cp = cp * 16 + static_cast<unsigned>(digit);
          }
          if (cp >= 0x80) return false;
          out += static_cast<char>(cp);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool number(double& out) {
    const char c = peek();
    if (c != '-' && !std::isdigit(static_cast<unsigned char>(c))) return false;
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    pos_ += static_cast<std::size_t>(end - begin);
    return end != begin && std::isfinite(out);  // JSON has no nan/inf
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

inline std::optional<ParsedJson> parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace ffsva::telemetry::testing
