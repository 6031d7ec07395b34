//===- support/Json.h - The project's JSON writer --------------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JsonWriter renders every JSON document the project emits, owning comma
/// placement and the one string escaper. Header-only, so crafty-lint can
/// use it without linking a project library.
///
/// The Compact layout has no whitespace (`{"key":1}`): readers of the KV
/// STATS reply find counters by searching for `"key":`. The Pretty layout
/// puts each element on its own line, two spaces per level, except in
/// containers opened inline, which stay on one line (`{"a": 1, "b": []}`)
/// along with their children.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_SUPPORT_JSON_H
#define CRAFTY_SUPPORT_JSON_H

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace crafty {

class JsonWriter {
public:
  enum Layout { Compact, Pretty };

  /// Appends to \p Out. \p Depth, the nesting level at which the document
  /// is embedded in an enclosing one, shifts Pretty indentation.
  explicit JsonWriter(std::string &Out, Layout L = Pretty, unsigned Depth = 0)
      : Out(Out), IsCompact(L == Compact), BaseDepth(Depth) {}

  JsonWriter &beginObject(bool Inline = false) { return open('{', Inline); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray(bool Inline = false) { return open('[', Inline); }
  JsonWriter &endArray() { return close(']'); }

  JsonWriter &key(std::string_view K) {
    separate();
    escape(Out, K);
    Out += IsCompact ? ":" : ": ";
    AfterKey = true;
    return *this;
  }

  JsonWriter &value(std::string_view S) {
    separate();
    escape(Out, S);
    return *this;
  }
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(bool B) { return raw(B ? "true" : "false"); }
  template <class T, class = std::enable_if_t<std::is_integral_v<T>>>
  JsonWriter &value(T V) {
    return raw(std::to_string(V));
  }
  /// %g when \p Decimals is negative (exact parameters such as a scale),
  /// else fixed point with \p Decimals digits (measurements). JSON has no
  /// NaN or infinity; they render as null.
  JsonWriter &value(double V, int Decimals = -1) {
    char Buf[352]; // %.Nf of DBL_MAX: 309 digits plus the decimals.
    if (!std::isfinite(V))
      return raw("null");
    if (Decimals < 0)
      std::snprintf(Buf, sizeof(Buf), "%g", V);
    else
      std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
    return raw(Buf);
  }

  /// `key(K).value(V...)` in one call.
  template <class... Ts>
  JsonWriter &field(std::string_view K, const Ts &...V) {
    key(K);
    return value(V...);
  }

  /// Places \p Json, an already rendered value, as the next element.
  JsonWriter &raw(std::string_view Json) {
    separate();
    Out += Json;
    return *this;
  }

  /// Appends \p S as a string literal: `"` and `\` escaped, \n \t \r in
  /// their short forms, other control characters as \u00XX.
  static void escape(std::string &Out, std::string_view S) {
    Out += '"';
    for (char C : S) {
      switch (C) {
      case '"': Out += "\\\""; break;
      case '\\': Out += "\\\\"; break;
      case '\n': Out += "\\n"; break;
      case '\t': Out += "\\t"; break;
      case '\r': Out += "\\r"; break;
      default:
        if ((unsigned char)C >= 0x20) {
          Out += C;
        } else {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", (unsigned)C);
          Out += Buf;
        }
      }
    }
    Out += '"';
  }

private:
  struct Frame {
    bool Inline;
    bool Empty;
  };

  std::string &Out;
  bool IsCompact;
  unsigned BaseDepth;
  std::vector<Frame> Stack;
  bool AfterKey = false;

  void indent(size_t Level) {
    Out += '\n';
    Out.append(2 * (BaseDepth + Level), ' ');
  }

  /// What precedes the next key or value: nothing right after a key,
  /// otherwise the comma and the line break of the enclosing container.
  void separate() {
    if (std::exchange(AfterKey, false) || Stack.empty())
      return;
    Frame &F = Stack.back();
    if (!std::exchange(F.Empty, false))
      Out += IsCompact || !F.Inline ? "," : ", ";
    if (!F.Inline)
      indent(Stack.size());
  }

  JsonWriter &open(char Bracket, bool Inline) {
    separate();
    Out += Bracket;
    Inline |= IsCompact || (!Stack.empty() && Stack.back().Inline);
    Stack.push_back({Inline, /*Empty=*/true});
    return *this;
  }

  JsonWriter &close(char Bracket) {
    Frame F = Stack.back();
    Stack.pop_back();
    if (!F.Inline && !F.Empty)
      indent(Stack.size());
    Out += Bracket;
    return *this;
  }
};

/// Truncates \p Path and writes \p Text; false on any I/O failure.
inline bool writeTextFile(const std::string &Path, std::string_view Text) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(Text.data(), (std::streamsize)Text.size());
  F.close();
  return !F.fail();
}

// A bench trajectory (BENCH_*.json) is a Pretty object holding "schema",
// "unit" and a "points" array. Points are rendered with
// `JsonWriter(Point, JsonWriter::Pretty, TrajectoryPointDepth)`.
constexpr unsigned TrajectoryPointDepth = 2;

/// A trajectory document holding the one point \p Point.
inline std::string trajectoryDocument(std::string_view Schema,
                                      std::string_view Unit,
                                      std::string_view Point) {
  std::string Doc;
  JsonWriter(Doc)
      .beginObject()
      .field("schema", Schema)
      .field("unit", Unit)
      .key("points")
      .beginArray()
      .raw(Point)
      .endArray()
      .endObject();
  return Doc + '\n';
}

/// Adds \p Point as the last point of the trajectory at \p Path, creating
/// the file when it does not exist. The point is spliced in before the
/// closing `\n  ]\n}`, so earlier points stay byte for byte. A file that
/// is not a \p Schema trajectory is left untouched and the call returns
/// false, as it does on I/O failure.
inline bool appendTrajectoryPoint(const std::string &Path,
                                  std::string_view Schema,
                                  std::string_view Unit,
                                  std::string_view Point) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return writeTextFile(Path, trajectoryDocument(Schema, Unit, Point));
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string File = Buf.str(), Head;
  JsonWriter(Head).beginObject().field("schema", Schema);
  const std::string_view Tail = "\n  ]\n}";
  size_t Pos = File.rfind(Tail);
  if (File.rfind(Head, 0) != 0 || Pos == std::string::npos ||
      File.find_first_not_of(" \r\n", Pos + Tail.size()) != std::string::npos)
    return false;
  File.insert(Pos, ",\n" + std::string(2 * TrajectoryPointDepth, ' ') +
                       std::string(Point));
  return writeTextFile(Path, File);
}

} // namespace crafty

#endif // CRAFTY_SUPPORT_JSON_H
