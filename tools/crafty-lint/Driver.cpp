//===- tools/crafty-lint/Driver.cpp - crafty-lint entry point -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver: loads the requested translation units (explicit
/// files, --scan directories, or a compile_commands.json via -p) plus
/// their project-local include closure -- in parallel across a small
/// thread pool -- builds the cross-file Registry and interprocedural
/// summaries, runs the seven rules (also parallel, partitioned by file),
/// filters against a committed baseline, and emits text plus optional
/// CheckReport-style JSON, SARIF 2.1.0, and a static-capacity report.
///
/// Exit codes: 0 clean (baselined findings allowed), 1 new findings or
/// stale baseline entries, 2 usage or I/O error.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Model.h"
#include "Summary.h"
#include "support/Json.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;
using namespace craftylint;
using crafty::JsonWriter;
using crafty::writeTextFile;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON reader (for compile_commands.json and the baseline file)
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum Type { Null, Bool, Num, Str, Arr, Obj } T = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<JsonValue> A;
  std::map<std::string, JsonValue> O;

  const JsonValue *get(const std::string &Key) const {
    auto It = O.find(Key);
    return It == O.end() ? nullptr : &It->second;
  }
  std::string str(const std::string &Key) const {
    const JsonValue *V = get(Key);
    return V && V->T == Str ? V->S : "";
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : P(Text.c_str()),
                                                 End(P + Text.size()) {}

  bool parse(JsonValue &Out) { return value(Out) && (ws(), P == End); }

private:
  const char *P;
  const char *End;

  void ws() {
    while (P < End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (P + N <= End && std::memcmp(P, L, N) == 0) {
      P += N;
      return true;
    }
    return false;
  }
  bool string(std::string &S) {
    ws();
    if (P >= End || *P != '"')
      return false;
    ++P;
    S.clear();
    while (P < End && *P != '"') {
      if (*P == '\\' && P + 1 < End) {
        ++P;
        switch (*P) {
        case 'n': S.push_back('\n'); break;
        case 't': S.push_back('\t'); break;
        case 'r': S.push_back('\r'); break;
        case 'b': S.push_back('\b'); break;
        case 'f': S.push_back('\f'); break;
        case 'u': // Keep the escape verbatim; paths never need it.
          S += "\\u";
          break;
        default: S.push_back(*P); break;
        }
        ++P;
      } else {
        S.push_back(*P++);
      }
    }
    if (P >= End)
      return false;
    ++P;
    return true;
  }
  bool value(JsonValue &V) {
    ws();
    if (P >= End)
      return false;
    if (*P == '"') {
      V.T = JsonValue::Str;
      return string(V.S);
    }
    if (*P == '{') {
      ++P;
      V.T = JsonValue::Obj;
      ws();
      if (P < End && *P == '}') {
        ++P;
        return true;
      }
      while (P < End) {
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (P >= End || *P != ':')
          return false;
        ++P;
        JsonValue Sub;
        if (!value(Sub))
          return false;
        V.O.emplace(std::move(Key), std::move(Sub));
        ws();
        if (P < End && *P == ',') {
          ++P;
          continue;
        }
        break;
      }
      ws();
      if (P >= End || *P != '}')
        return false;
      ++P;
      return true;
    }
    if (*P == '[') {
      ++P;
      V.T = JsonValue::Arr;
      ws();
      if (P < End && *P == ']') {
        ++P;
        return true;
      }
      while (P < End) {
        JsonValue Sub;
        if (!value(Sub))
          return false;
        V.A.push_back(std::move(Sub));
        ws();
        if (P < End && *P == ',') {
          ++P;
          continue;
        }
        break;
      }
      ws();
      if (P >= End || *P != ']')
        return false;
      ++P;
      return true;
    }
    if (lit("true")) {
      V.T = JsonValue::Bool;
      V.B = true;
      return true;
    }
    if (lit("false")) {
      V.T = JsonValue::Bool;
      V.B = false;
      return true;
    }
    if (lit("null")) {
      V.T = JsonValue::Null;
      return true;
    }
    // Number.
    const char *S = P;
    if (P < End && (*P == '-' || *P == '+'))
      ++P;
    while (P < End && (std::isdigit((unsigned char)*P) || *P == '.' ||
                       *P == 'e' || *P == 'E' || *P == '-' || *P == '+'))
      ++P;
    if (P == S)
      return false;
    V.T = JsonValue::Num;
    V.N = std::strtod(std::string(S, P).c_str(), nullptr);
    return true;
  }
};

//===----------------------------------------------------------------------===//
// File loading
//===----------------------------------------------------------------------===//

bool readFile(const fs::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool isSourceFile(const fs::path &P) {
  std::string E = P.extension().string();
  return E == ".h" || E == ".hpp" || E == ".cc" || E == ".cpp" || E == ".cxx";
}

/// \p P normalized to a root-relative generic path, or its absolute form
/// when it lives outside \p Root.
std::string normPathTo(const fs::path &P, const fs::path &Root) {
  std::error_code EC;
  fs::path Canon = fs::weakly_canonical(fs::absolute(P), EC);
  if (EC)
    Canon = fs::absolute(P);
  fs::path CRoot = fs::weakly_canonical(fs::absolute(Root), EC);
  fs::path Rel = Canon.lexically_relative(CRoot);
  std::string S = Rel.generic_string();
  if (S.empty() || S[0] == '.')
    return Canon.generic_string();
  return S;
}

struct Options {
  fs::path Root = fs::current_path();
  std::vector<fs::path> IncludeDirs;
  std::vector<fs::path> ScanDirs;
  std::vector<fs::path> Files;
  fs::path CompDb;       // Directory holding compile_commands.json.
  fs::path BaselinePath;
  fs::path WriteBaselinePath;
  fs::path JsonPath;
  fs::path SarifPath;
  fs::path CapacityReportPath;
  std::string Restrict; // Normalized-path prefix filter for diagnosis.
  long long TxCapacityBudget = 4096; // 8-byte words per transaction.
  int Jobs = 0;          // 0: pick from hardware_concurrency.
  bool PruneBaseline = false;
  bool Verbose = false;
};

/// Loads, lexes and parses every requested file plus the project-local
/// include closure, keeping ParsedFiles at stable addresses. Files within
/// one closure round are parsed concurrently; registration (and therefore
/// the Registry) is order-independent by construction, and file iteration
/// is sorted by path so results do not depend on scheduling.
class Corpus {
public:
  Corpus(const Options &Opt) : Opt(Opt) {}

  /// Loads \p Paths (as targets) plus their include closure. Returns the
  /// number of unreadable inputs.
  size_t loadAll(const std::vector<fs::path> &Paths) {
    std::atomic<size_t> Unreadable{0};
    std::vector<std::pair<fs::path, bool>> Round; // (canon, isTarget)
    for (const fs::path &P : Paths)
      Round.push_back({canon(P), true});

    while (!Round.empty()) {
      // Drop paths already loaded or duplicated within the round.
      std::vector<std::pair<fs::path, bool>> Batch;
      std::set<std::string> InBatch;
      for (auto &PB : Round) {
        std::string Key = PB.first.generic_string();
        auto It = ByPath.find(Key);
        if (It != ByPath.end()) {
          if (PB.second)
            TargetSet.insert(It->second);
          continue;
        }
        if (InBatch.insert(Key).second)
          Batch.push_back(PB);
        else if (PB.second)
          for (auto &QB : Batch)
            if (QB.first.generic_string() == Key)
              QB.second = true;
      }
      Round.clear();
      if (Batch.empty())
        break;

      // Parse the batch concurrently into detached ParsedFiles.
      std::vector<std::unique_ptr<ParsedFile>> Parsed(Batch.size());
      std::atomic<size_t> Next{0};
      auto Work = [&]() {
        for (size_t I = Next.fetch_add(1); I < Batch.size();
             I = Next.fetch_add(1)) {
          std::string Text;
          if (!readFile(Batch[I].first, Text)) {
            if (Batch[I].second)
              ++Unreadable;
            continue;
          }
          auto PF = std::make_unique<ParsedFile>();
          PF->Lex = lexFile(normPath(Batch[I].first), Text);
          parseFile(*PF);
          Parsed[I] = std::move(PF);
        }
      };
      size_t NThreads = std::min<size_t>(jobs(), Batch.size());
      if (NThreads <= 1) {
        Work();
      } else {
        std::vector<std::thread> Pool;
        for (size_t I = 0; I < NThreads; ++I)
          Pool.emplace_back(Work);
        for (std::thread &Th : Pool)
          Th.join();
      }

      // Register sequentially and queue the next closure round.
      for (size_t I = 0; I < Batch.size(); ++I) {
        if (!Parsed[I])
          continue;
        Files.push_back(std::move(Parsed[I]));
        ParsedFile *PF = Files.back().get();
        ByPath[Batch[I].first.generic_string()] = PF;
        if (Batch[I].second)
          TargetSet.insert(PF);
        for (const std::string &Inc : PF->Lex.Includes) {
          fs::path Resolved =
              resolveInclude(Batch[I].first.parent_path(), Inc);
          if (!Resolved.empty())
            Round.push_back({Resolved, false});
        }
      }
    }
    return Unreadable.load();
  }

  std::string normPath(const fs::path &Canon) const {
    return normPathTo(Canon, Opt.Root);
  }

  size_t jobs() const {
    if (Opt.Jobs > 0)
      return (size_t)Opt.Jobs;
    unsigned HW = std::thread::hardware_concurrency();
    return HW ? std::min(HW, 8u) : 1;
  }

  std::vector<const ParsedFile *> targets(const std::string &Restrict) const {
    std::vector<const ParsedFile *> Out;
    for (const auto &PF : sorted()) {
      if (!TargetSet.count(PF))
        continue;
      if (!Restrict.empty() && PF->Lex.Path.rfind(Restrict, 0) != 0)
        continue;
      Out.push_back(PF);
    }
    return Out;
  }

  /// All parsed files in path order (deterministic regardless of the load
  /// schedule).
  std::vector<const ParsedFile *> sorted() const {
    std::vector<const ParsedFile *> Out;
    for (const auto &PF : Files)
      Out.push_back(PF.get());
    std::sort(Out.begin(), Out.end(),
              [](const ParsedFile *A, const ParsedFile *B) {
                return A->Lex.Path < B->Lex.Path;
              });
    return Out;
  }

  Registry buildRegistry() const {
    Registry Reg;
    for (const ParsedFile *PF : sorted())
      Reg.add(*PF);
    return Reg;
  }

  size_t size() const { return Files.size(); }

private:
  const Options &Opt;
  std::vector<std::unique_ptr<ParsedFile>> Files; // Stable addresses.
  std::map<std::string, ParsedFile *> ByPath;
  std::set<const ParsedFile *> TargetSet;

  fs::path canon(const fs::path &P) const {
    std::error_code EC;
    fs::path C = fs::weakly_canonical(fs::absolute(P), EC);
    return EC ? fs::absolute(P) : C;
  }

  fs::path resolveInclude(const fs::path &IncluderDir,
                          const std::string &Name) const {
    std::vector<fs::path> Dirs;
    Dirs.push_back(IncluderDir);
    for (const fs::path &D : Opt.IncludeDirs)
      Dirs.push_back(D);
    std::error_code EC;
    fs::path Root = fs::weakly_canonical(fs::absolute(Opt.Root), EC);
    for (const fs::path &D : Dirs) {
      fs::path Cand = fs::weakly_canonical(D / Name, EC);
      if (EC || !fs::exists(Cand, EC))
        continue;
      // Stay inside the project: never chase system headers.
      if (Cand.generic_string().rfind(Root.generic_string(), 0) != 0)
        continue;
      return Cand;
    }
    return {};
  }
};

//===----------------------------------------------------------------------===//
// Baseline
//===----------------------------------------------------------------------===//

struct BaselineEntry {
  std::string Rule;
  std::string File;
  std::string Function; // Empty matches any function in File.
  std::string Justification;
  int Matched = 0;
};

bool loadBaseline(const fs::path &Path, std::vector<BaselineEntry> &Out) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  JsonValue Root;
  if (!JsonParser(Text).parse(Root) || Root.T != JsonValue::Obj)
    return false;
  const JsonValue *Entries = Root.get("entries");
  if (!Entries || Entries->T != JsonValue::Arr)
    return false;
  for (const JsonValue &E : Entries->A) {
    if (E.T != JsonValue::Obj)
      continue;
    BaselineEntry B;
    B.Rule = E.str("rule");
    B.File = E.str("file");
    B.Function = E.str("function");
    B.Justification = E.str("justification");
    if (!B.Rule.empty() && !B.File.empty())
      Out.push_back(std::move(B));
  }
  return true;
}

void applyBaseline(std::vector<Diagnostic> &Diags,
                   std::vector<BaselineEntry> &Baseline) {
  for (Diagnostic &D : Diags) {
    for (BaselineEntry &B : Baseline) {
      if (B.Rule != D.Rule || B.File != D.File)
        continue;
      if (!B.Function.empty() && B.Function != D.Func)
        continue;
      D.Baselined = true;
      ++B.Matched;
      break;
    }
  }
}

bool writeBaseline(const fs::path &Path,
                   const std::vector<BaselineEntry> &Baseline) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject().field("tool", "crafty-lint").key("entries").beginArray();
  for (const BaselineEntry &B : Baseline)
    W.beginObject(/*Inline=*/true)
        .field("rule", B.Rule)
        .field("file", B.File)
        .field("function", B.Function)
        .field("justification", B.Justification)
        .endObject();
  W.endArray().endObject();
  return writeTextFile(Path.string(), Out + '\n');
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

bool writeJsonReport(const fs::path &Path, const CheckResult &Result) {
  const std::vector<Diagnostic> &Diags = Result.Diags;
  size_t NewCount = 0, BaseCount = 0;
  std::map<std::string, uint64_t> Counts;
  for (const Diagnostic &D : Diags) {
    ++Counts[D.Rule];
    (D.Baselined ? BaseCount : NewCount)++;
  }
  // Mirrors src/check/CheckReport.h: checker/violations/lints/counts/reports.
  std::string Out;
  JsonWriter W(Out);
  W.beginObject()
      .field("checker", "crafty-lint")
      .field("violations", NewCount)
      .field("lints", BaseCount)
      .key("counts")
      .beginObject(/*Inline=*/true);
  for (const auto &[Rule, Count] : Counts)
    W.field(Rule, Count);
  W.endObject().key("reports").beginArray();
  for (const Diagnostic &D : Diags)
    W.beginObject(/*Inline=*/true)
        .field("kind", D.Rule)
        .field("violation", !D.Baselined)
        .field("file", D.File)
        .field("line", D.Line)
        .field("function", D.Func)
        .field("baselined", D.Baselined)
        .field("message", D.Message)
        .endObject();
  W.endArray().key("capacities").beginArray();
  for (const CapacityEntry &C : Result.Capacities)
    W.beginObject(/*Inline=*/true)
        .field("function", C.QualName)
        .field("file", C.File)
        .field("line", C.Line)
        .field("bound", C.Bound)
        .endObject();
  W.endArray().endObject();
  return writeTextFile(Path.string(), Out + '\n');
}

struct RuleDoc {
  const char *Id;
  const char *Short;
};

const RuleDoc RuleDocs[] = {
    {"pm-raw-store",
     "Persistent store bypasses the transactional store API / undo log"},
    {"htm-unsafe-call",
     "Transaction body reaches an operation that aborts hardware "
     "transactions"},
    {"flush-without-drain",
     "Cache-line write-back can reach function exit without a drain fence"},
    {"unbounded-tx-writes",
     "Loop issues transactional stores with no visible iteration bound"},
    {"persist-ordering",
     "Commit-marker/publish store not ordered after its data is durable"},
    {"pm-escape",
     "Address of persistent memory escapes the transaction scope"},
    {"tx-capacity",
     "Static transaction write-set bound exceeds the HTM capacity budget"},
};

/// SARIF 2.1.0, one run, results carrying root-relative artifact URIs --
/// the layout GitHub code scanning ingests.
bool writeSarif(const fs::path &Path, const std::vector<Diagnostic> &Diags) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject()
      .field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
      .field("version", "2.1.0")
      .key("runs")
      .beginArray()
      .beginObject()
      .key("tool")
      .beginObject()
      .key("driver")
      .beginObject()
      .field("name", "crafty-lint")
      .field("informationUri",
             "https://example.invalid/crafty/tools/crafty-lint")
      .key("rules")
      .beginArray();
  for (const RuleDoc &R : RuleDocs)
    W.beginObject(/*Inline=*/true)
        .field("id", R.Id)
        .key("shortDescription")
        .beginObject()
        .field("text", R.Short)
        .endObject()
        .endObject();
  W.endArray().endObject().endObject().key("results").beginArray();
  for (const Diagnostic &D : Diags)
    W.beginObject()
        .field("ruleId", D.Rule)
        .field("level", D.Baselined ? "note" : "error")
        .key("message")
        .beginObject(/*Inline=*/true)
        .field("text", D.Message + " [in " + D.Func + "]")
        .endObject()
        .key("locations")
        .beginArray(/*Inline=*/true)
        .beginObject()
        .key("physicalLocation")
        .beginObject()
        .key("artifactLocation")
        .beginObject()
        .field("uri", D.File)
        .endObject()
        .key("region")
        .beginObject()
        .field("startLine", D.Line > 0 ? D.Line : 1)
        .endObject()
        .endObject()
        .endObject()
        .endArray()
        .endObject();
  W.endArray().endObject().endArray().endObject();
  return writeTextFile(Path.string(), Out + '\n');
}

/// `<bound> <qualified-name>` per CRAFTY_TX_BODY root, sorted by name:
/// consumed by tests that cross-check the static bound against dynamic
/// HtmStats counters.
bool writeCapacityReport(const fs::path &Path,
                         const std::vector<CapacityEntry> &Capacities) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  for (const CapacityEntry &C : Capacities)
    Out << C.Bound << " " << C.QualName << "\n";
  return Out.good();
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] [files...]\n"
      "\n"
      "Crafty persistence & HTM-discipline analyzer. Options:\n"
      "  -p <dir>              read targets from <dir>/compile_commands.json\n"
      "                        (missing db: warn and fall back to --scan)\n"
      "  --scan <dir>          recursively lint *.h/*.hpp/*.cc/*.cpp/*.cxx\n"
      "  --restrict <prefix>   only diagnose files under this (root-relative)\n"
      "                        prefix; others still feed the call graph\n"
      "  --root <dir>          path-normalization base (default: cwd)\n"
      "  --include-dir <dir>   include-closure search dir (repeatable;\n"
      "                        default: root and root/src)\n"
      "  --baseline <file>     accepted-findings file; matches are reported\n"
      "                        as baselined, not as new findings. Entries\n"
      "                        that no longer fire FAIL the run (stale)\n"
      "  --prune-baseline      rewrite --baseline dropping stale entries\n"
      "                        instead of failing on them\n"
      "  --write-baseline <f>  write current findings as a baseline and exit\n"
      "  --json <file>         CheckReport-style JSON artifact\n"
      "  --sarif <file>        SARIF 2.1.0 artifact (GitHub code scanning)\n"
      "  --capacity-report <f> write `<bound> <function>` per CRAFTY_TX_BODY\n"
      "  --tx-capacity-budget <n>  HTM write budget in 8-byte words for the\n"
      "                        tx-capacity rule (default 4096 = 512 lines)\n"
      "  --jobs <n>            parser/checker thread count (default: cores,\n"
      "                        capped at 8)\n"
      "  --verbose             loading/statistics chatter on stderr\n"
      "\n"
      "Suppress one finding in source with:\n"
      "  // crafty-lint: suppress(<rule>) <justification>\n"
      "on the diagnosed line or the line above it.\n"
      "Exit: 0 clean, 1 new findings or stale baseline, 2 usage/IO error.\n",
      Prog);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "crafty-lint: %s requires an argument\n", Flag);
        return nullptr;
      }
      return argv[++I];
    };
    if (A == "-p") {
      const char *V = Next("-p");
      if (!V)
        return 2;
      Opt.CompDb = V;
    } else if (A == "--scan") {
      const char *V = Next("--scan");
      if (!V)
        return 2;
      Opt.ScanDirs.push_back(V);
    } else if (A == "--restrict") {
      const char *V = Next("--restrict");
      if (!V)
        return 2;
      Opt.Restrict = V;
    } else if (A == "--root") {
      const char *V = Next("--root");
      if (!V)
        return 2;
      Opt.Root = V;
    } else if (A == "--include-dir") {
      const char *V = Next("--include-dir");
      if (!V)
        return 2;
      Opt.IncludeDirs.push_back(V);
    } else if (A == "--baseline") {
      const char *V = Next("--baseline");
      if (!V)
        return 2;
      Opt.BaselinePath = V;
    } else if (A == "--prune-baseline") {
      Opt.PruneBaseline = true;
    } else if (A == "--write-baseline") {
      const char *V = Next("--write-baseline");
      if (!V)
        return 2;
      Opt.WriteBaselinePath = V;
    } else if (A == "--json") {
      const char *V = Next("--json");
      if (!V)
        return 2;
      Opt.JsonPath = V;
    } else if (A == "--sarif") {
      const char *V = Next("--sarif");
      if (!V)
        return 2;
      Opt.SarifPath = V;
    } else if (A == "--capacity-report") {
      const char *V = Next("--capacity-report");
      if (!V)
        return 2;
      Opt.CapacityReportPath = V;
    } else if (A == "--tx-capacity-budget") {
      const char *V = Next("--tx-capacity-budget");
      if (!V)
        return 2;
      Opt.TxCapacityBudget = std::strtoll(V, nullptr, 10);
      if (Opt.TxCapacityBudget <= 0) {
        std::fprintf(stderr,
                     "crafty-lint: --tx-capacity-budget must be positive\n");
        return 2;
      }
    } else if (A == "--jobs") {
      const char *V = Next("--jobs");
      if (!V)
        return 2;
      Opt.Jobs = std::atoi(V);
      if (Opt.Jobs < 1) {
        std::fprintf(stderr, "crafty-lint: --jobs must be >= 1\n");
        return 2;
      }
    } else if (A == "--verbose") {
      Opt.Verbose = true;
    } else if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "crafty-lint: unknown option '%s'\n", A.c_str());
      return usage(argv[0]);
    } else {
      Opt.Files.push_back(A);
    }
  }
  if (Opt.IncludeDirs.empty()) {
    Opt.IncludeDirs.push_back(Opt.Root);
    Opt.IncludeDirs.push_back(Opt.Root / "src");
  }

  // Gather target files.
  std::vector<fs::path> TargetPaths = Opt.Files;
  std::error_code EC;
  for (const fs::path &Dir : Opt.ScanDirs) {
    if (!fs::is_directory(Dir, EC)) {
      std::fprintf(stderr, "crafty-lint: --scan '%s' is not a directory\n",
                   Dir.string().c_str());
      return 2;
    }
    for (auto It = fs::recursive_directory_iterator(Dir, EC);
         It != fs::recursive_directory_iterator(); It.increment(EC)) {
      if (EC)
        break;
      const fs::directory_entry &E = *It;
      std::string Name = E.path().filename().string();
      if (E.is_directory(EC) &&
          (Name == "build" || (!Name.empty() && Name[0] == '.'))) {
        It.disable_recursion_pending();
        continue;
      }
      if (E.is_regular_file(EC) && isSourceFile(E.path()))
        TargetPaths.push_back(E.path());
    }
  }
  if (!Opt.CompDb.empty()) {
    fs::path DbPath = Opt.CompDb / "compile_commands.json";
    std::string Text;
    if (!readFile(DbPath, Text)) {
      // A missing database downgrades to the --scan/file list so `lint`
      // keeps working in build trees configured without
      // CMAKE_EXPORT_COMPILE_COMMANDS.
      std::fprintf(stderr,
                   "crafty-lint: warning: cannot read %s; falling back to "
                   "--scan/file arguments\n",
                   DbPath.string().c_str());
    } else {
      JsonValue Db;
      if (!JsonParser(Text).parse(Db) || Db.T != JsonValue::Arr) {
        std::fprintf(stderr, "crafty-lint: cannot parse %s\n",
                     DbPath.string().c_str());
        return 2;
      }
      for (const JsonValue &Entry : Db.A) {
        if (Entry.T != JsonValue::Obj)
          continue;
        std::string File = Entry.str("file");
        if (File.empty())
          continue;
        fs::path FP = File;
        if (FP.is_relative())
          FP = fs::path(Entry.str("directory")) / FP;
        TargetPaths.push_back(FP);
      }
    }
  }
  if (TargetPaths.empty()) {
    std::fprintf(stderr, "crafty-lint: no input files\n");
    return usage(argv[0]);
  }
  if (!Opt.Restrict.empty()) {
    // Don't even load out-of-scope TUs (e.g. third-party sources a compdb
    // drags in); the in-scope files' include closure is all the registry
    // context the checks need.
    std::vector<fs::path> Kept;
    for (const fs::path &P : TargetPaths)
      if (normPathTo(P, Opt.Root).rfind(Opt.Restrict, 0) == 0)
        Kept.push_back(P);
    TargetPaths.swap(Kept);
    if (TargetPaths.empty()) {
      std::fprintf(stderr, "crafty-lint: no input files under --restrict "
                           "prefix '%s'\n",
                   Opt.Restrict.c_str());
      return 2;
    }
  }

  // Load everything (targets + include closure) and analyze.
  Corpus C(Opt);
  size_t Unreadable = C.loadAll(TargetPaths);
  if (Unreadable)
    std::fprintf(stderr, "crafty-lint: warning: %zu input file(s) unreadable\n",
                 Unreadable);
  std::vector<const ParsedFile *> Targets = C.targets(Opt.Restrict);
  if (Targets.empty()) {
    std::fprintf(stderr, "crafty-lint: no target files after --restrict\n");
    return 2;
  }
  Registry Reg = C.buildRegistry();
  Summaries Sums(Reg);
  Sums.compute(C.sorted());
  if (Opt.Verbose)
    std::fprintf(stderr,
                 "crafty-lint: %zu file(s) loaded, %zu target(s), "
                 "%zu annotated name(s), %zu thread(s)\n",
                 C.size(), Targets.size(), Reg.AnnBySimple.size(), C.jobs());

  CheckOptions CheckOpt;
  CheckOpt.TxCapacityBudget = Opt.TxCapacityBudget;

  // Partition the targets across the pool; summaries are immutable now and
  // each Checker only touches its own files' diagnostics.
  CheckResult Result;
  {
    size_t NThreads = std::min(C.jobs(), Targets.size());
    if (NThreads <= 1) {
      Result = runChecks(Targets, Sums, CheckOpt);
    } else {
      std::vector<std::vector<const ParsedFile *>> Parts(NThreads);
      for (size_t I = 0; I < Targets.size(); ++I)
        Parts[I % NThreads].push_back(Targets[I]);
      std::vector<CheckResult> PartResults(NThreads);
      std::vector<std::thread> Pool;
      for (size_t I = 0; I < NThreads; ++I)
        Pool.emplace_back([&, I]() {
          PartResults[I] = runChecks(Parts[I], Sums, CheckOpt);
        });
      for (std::thread &Th : Pool)
        Th.join();
      std::set<std::string> Seen; // Cross-partition dedup (htm-unsafe can
                                  // land the same site via two roots).
      for (CheckResult &PR : PartResults) {
        for (Diagnostic &D : PR.Diags) {
          std::string Key =
              D.Rule + "|" + D.File + "|" + std::to_string(D.Line) + "|" +
              D.Func;
          if (Seen.insert(Key).second)
            Result.Diags.push_back(std::move(D));
        }
        for (CapacityEntry &CE : PR.Capacities)
          Result.Capacities.push_back(std::move(CE));
      }
      std::sort(Result.Diags.begin(), Result.Diags.end(),
                [](const Diagnostic &A, const Diagnostic &B) {
                  if (A.File != B.File)
                    return A.File < B.File;
                  if (A.Line != B.Line)
                    return A.Line < B.Line;
                  return A.Rule < B.Rule;
                });
    }
    std::sort(Result.Capacities.begin(), Result.Capacities.end(),
              [](const CapacityEntry &A, const CapacityEntry &B) {
                return A.QualName < B.QualName;
              });
  }
  std::vector<Diagnostic> &Diags = Result.Diags;

  if (!Opt.WriteBaselinePath.empty()) {
    // One entry per (rule, file, function) accepting every finding.
    std::vector<BaselineEntry> Fresh;
    std::set<std::string> Seen;
    for (const Diagnostic &D : Diags)
      if (Seen.insert(D.Rule + "|" + D.File + "|" + D.Func).second)
        Fresh.push_back({D.Rule, D.File, D.Func, "TODO: justify or fix"});
    if (!writeBaseline(Opt.WriteBaselinePath, Fresh)) {
      std::fprintf(stderr, "crafty-lint: cannot write %s\n",
                   Opt.WriteBaselinePath.string().c_str());
      return 2;
    }
    std::printf("crafty-lint: wrote %zu baseline entr%s to %s\n", Diags.size(),
                Diags.size() == 1 ? "y" : "ies",
                Opt.WriteBaselinePath.string().c_str());
    return 0;
  }

  std::vector<BaselineEntry> Baseline;
  if (!Opt.BaselinePath.empty()) {
    if (!loadBaseline(Opt.BaselinePath, Baseline)) {
      std::fprintf(stderr, "crafty-lint: cannot read baseline %s\n",
                   Opt.BaselinePath.string().c_str());
      return 2;
    }
    applyBaseline(Diags, Baseline);
  }

  size_t NewCount = 0, BaseCount = 0;
  for (const Diagnostic &D : Diags) {
    if (D.Baselined) {
      ++BaseCount;
      continue;
    }
    ++NewCount;
    std::printf("%s:%d: %s: %s [in %s]\n", D.File.c_str(), D.Line,
                D.Rule.c_str(), D.Message.c_str(), D.Func.c_str());
  }
  size_t Stale = 0;
  for (const BaselineEntry &B : Baseline) {
    if (B.Matched)
      continue;
    ++Stale;
    std::fprintf(stderr,
                 "crafty-lint: %s: stale baseline entry %s %s %s "
                 "(no longer fires -- remove it or rerun with "
                 "--prune-baseline)\n",
                 Opt.PruneBaseline ? "pruning" : "error", B.Rule.c_str(),
                 B.File.c_str(), B.Function.c_str());
  }
  if (Stale && Opt.PruneBaseline) {
    // Keep the entries that still match a finding, with their
    // justifications.
    std::erase_if(Baseline, [](const BaselineEntry &B) { return !B.Matched; });
    if (!writeBaseline(Opt.BaselinePath, Baseline)) {
      std::fprintf(stderr, "crafty-lint: cannot rewrite %s\n",
                   Opt.BaselinePath.string().c_str());
      return 2;
    }
    std::printf("crafty-lint: pruned %zu stale entr%s from %s\n", Stale,
                Stale == 1 ? "y" : "ies",
                Opt.BaselinePath.string().c_str());
    Stale = 0;
  }

  if (!Opt.JsonPath.empty() && !writeJsonReport(Opt.JsonPath, Result)) {
    std::fprintf(stderr, "crafty-lint: cannot write %s\n",
                 Opt.JsonPath.string().c_str());
    return 2;
  }
  if (!Opt.SarifPath.empty() && !writeSarif(Opt.SarifPath, Diags)) {
    std::fprintf(stderr, "crafty-lint: cannot write %s\n",
                 Opt.SarifPath.string().c_str());
    return 2;
  }
  if (!Opt.CapacityReportPath.empty() &&
      !writeCapacityReport(Opt.CapacityReportPath, Result.Capacities)) {
    std::fprintf(stderr, "crafty-lint: cannot write %s\n",
                 Opt.CapacityReportPath.string().c_str());
    return 2;
  }

  std::printf("crafty-lint: %zu finding(s): %zu new, %zu baselined, "
              "%zu stale baseline entr%s, %zu file(s) analyzed\n",
              NewCount + BaseCount, NewCount, BaseCount, Stale,
              Stale == 1 ? "y" : "ies", Targets.size());
  return (NewCount || Stale) ? 1 : 0;
}
