//===- tools/crafty-lint/Checks.cpp - The analyzer rules ------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "Cfg.h"
#include "Dataflow.h"
#include "Stmt.h"
#include "Syntax.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

namespace craftylint {

namespace {

const char *const RulePmRawStore = "pm-raw-store";
const char *const RuleHtmUnsafeCall = "htm-unsafe-call";
const char *const RuleFlushWithoutDrain = "flush-without-drain";
const char *const RuleUnboundedTxWrites = "unbounded-tx-writes";
const char *const RulePersistOrdering = "persist-ordering";
const char *const RulePmEscape = "pm-escape";
const char *const RuleTxCapacity = "tx-capacity";

//===----------------------------------------------------------------------===//
// flush-without-drain dataflow state
//===----------------------------------------------------------------------===//

/// "A write-back was scheduled and no fence has retired it yet", with the
/// scheduling site for the diagnostic.
struct FlushState {
  bool Pending = false;
  int FlushLine = 0;
  std::string FlushName;
};

//===----------------------------------------------------------------------===//
// persist-ordering dataflow state
//===----------------------------------------------------------------------===//

/// One not-yet-durable persistent store: where it happened and whether its
/// line has at least been flushed (scheduled) since.
struct PendEntry {
  int Line = 0;
  bool Flushed = false;
};

/// Entity key (printable lvalue spelling) -> pending store.
using PersistState = std::map<std::string, PendEntry>;

//===----------------------------------------------------------------------===//
// Check engine
//===----------------------------------------------------------------------===//

class Checker {
public:
  Checker(const std::vector<const ParsedFile *> &Targets,
          const Summaries &Sums, const CheckOptions &Opt)
      : Targets(Targets), Sums(Sums), Reg(Sums.registry()), Opt(Opt) {}

  CheckResult run() {
    for (const ParsedFile *PF : Targets)
      for (const FunctionInfo &F : PF->Funcs)
        if (F.hasBody())
          checkFunction(*PF, F);
    finalize();
    CheckResult R;
    R.Diags = std::move(Diags);
    R.Capacities = std::move(Capacities);
    return R;
  }

private:
  const std::vector<const ParsedFile *> &Targets;
  const Summaries &Sums;
  const Registry &Reg;
  const CheckOptions &Opt;
  std::vector<Diagnostic> Diags;
  std::vector<CapacityEntry> Capacities;
  std::set<std::string> Emitted; // rule|file|line|func dedup.

  // Per-function scratch, rebuilt by checkFunction.
  const ParsedFile *PF = nullptr;
  const FunctionInfo *F = nullptr;
  Annotations FAnn; // Effective annotations: definition + header decls.
  std::map<std::string, bool> PmVars; // name -> IsPtr (params + locals).
  std::set<std::string> LocalConsts;

  StoreContext storeCtx() const {
    StoreContext Ctx;
    Ctx.Reg = &Reg;
    Ctx.PmVars = &PmVars;
    Ctx.ClassName = F->ClassName;
    return Ctx;
  }

  void checkFunction(const ParsedFile &File, const FunctionInfo &Fn) {
    PF = &File;
    F = &Fn;
    FAnn = Sums.effectiveAnn(Fn);
    collectLocals();

    const FuncIR *IR = Sums.ir(&Fn);
    if (!IR)
      return; // Parsed after summaries were computed; cannot happen here.

    checkPmRawStore();
    checkHtmUnsafe();
    checkFlushWithoutDrain(*IR);
    checkUnboundedTxWrites(IR->Tree, /*InLambda=*/false);
    checkPersistOrdering(*IR);
    checkPmEscape();
    checkTxCapacity();
  }

  void diag(const char *Rule, const LexedFile &Where, int Line,
            const std::string &Func, std::string Msg) {
    if (isSuppressed(Where, Rule, Line))
      return;
    std::string Key = std::string(Rule) + "|" + Where.Path + "|" +
                      std::to_string(Line) + "|" + Func;
    if (!Emitted.insert(Key).second)
      return;
    Diags.push_back(Diagnostic{Rule, Where.Path, Line, Func, std::move(Msg),
                               /*Baselined=*/false});
  }

  /// `// crafty-lint: suppress(<rule>) <why>` on the same line or the line
  /// directly above silences the finding.
  bool isSuppressed(const LexedFile &Where, const char *Rule, int Line) const {
    const std::string Needle = std::string("crafty-lint: suppress(") + Rule +
                               ")";
    for (const Comment &C : Where.Comments) {
      if (C.Line != Line && C.Line != Line - 1)
        continue;
      if (C.Text.find(Needle) != std::string::npos)
        return true;
    }
    return false;
  }

  void finalize() {
    std::sort(Diags.begin(), Diags.end(),
              [](const Diagnostic &A, const Diagnostic &B) {
                if (A.File != B.File)
                  return A.File < B.File;
                if (A.Line != B.Line)
                  return A.Line < B.Line;
                return A.Rule < B.Rule;
              });
  }

  //===--------------------------------------------------------------------===//
  // Local declaration scan
  //===--------------------------------------------------------------------===//

  void collectLocals() {
    PmVars.clear();
    LocalConsts.clear();
    for (const PmVar &V : F->PmParams)
      PmVars[V.Name] = V.IsPtr;

    const std::vector<Token> &T = PF->Lex.Toks;
    for (size_t I = F->BodyBegin; I < F->BodyEnd; ++I) {
      if (!T[I].isIdent())
        continue;
      if (T[I].Text == "CRAFTY_PMEM") {
        bool IsPtr = false;
        std::string Name;
        for (size_t J = I + 1; J < F->BodyEnd; ++J) {
          if (T[J].isPunct(";") || T[J].isPunct("=") || T[J].isPunct("{") ||
              T[J].isPunct("("))
            break;
          if (T[J].isPunct("*"))
            IsPtr = true;
          if (T[J].isIdent() && !isKeyword(T[J].Text))
            Name = T[J].Text;
        }
        if (!Name.empty())
          PmVars[Name] = IsPtr;
      } else if (T[I].Text == "const" || T[I].Text == "constexpr") {
        std::string Name;
        for (size_t J = I + 1; J < F->BodyEnd; ++J) {
          if (T[J].isPunct(";") || T[J].isPunct("=") || T[J].isPunct("(") ||
              T[J].isPunct("{") || T[J].isPunct(":") || T[J].isPunct(")"))
            break;
          if (T[J].isIdent() && !isKeyword(T[J].Text))
            Name = T[J].Text;
        }
        if (!Name.empty())
          LocalConsts.insert(Name);
      }
    }
  }

  bool isConstName(const std::string &N) const {
    return LocalConsts.count(N) || PF->ConstNames.count(N) ||
           Reg.ConstNames.count(N) || isAllCapsName(N) || isKConstName(N);
  }

  //===--------------------------------------------------------------------===//
  // Rule 1: pm-raw-store
  //===--------------------------------------------------------------------===//

  void checkPmRawStore() {
    const std::vector<Token> &T = PF->Lex.Toks;
    for (size_t I = F->BodyBegin; I < F->BodyEnd; ++I) {
      const Token &Tk = T[I];
      // memcpy-family destination argument.
      if (Tk.isIdent() && memWriteFns().count(Tk.Text) && I + 1 < F->BodyEnd &&
          T[I + 1].isPunct("(")) {
        size_t ArgB = I + 2;
        size_t Depth = 0;
        size_t ArgE = ArgB;
        while (ArgE < F->BodyEnd) {
          if (T[ArgE].isPunct("(") || T[ArgE].isPunct("[")) {
            ++Depth;
          } else if (T[ArgE].isPunct(")") || T[ArgE].isPunct("]")) {
            if (Depth == 0)
              break;
            --Depth;
          } else if (T[ArgE].isPunct(",") && Depth == 0) {
            break;
          }
          ++ArgE;
        }
        size_t LvB = ArgB;
        while (LvB < ArgE && T[LvB].isPunct("&"))
          ++LvB; // &obj->field is the same lvalue with an explicit &.
        Lvalue L = parseLvalue(T, LvB, ArgE);
        std::string What = classifyPmStore(storeCtx(), L, /*ForMemWrite=*/true);
        if (!What.empty())
          diag(RulePmRawStore, PF->Lex, Tk.Line, F->QualName,
               Tk.Text + " into " + What +
                   " bypasses the Crafty undo log; persistent writes must go "
                   "through the transactional store API (HtmTx::store / "
                   "TxnContext::store) or persistDirect during "
                   "format/recovery");
        continue;
      }
      if (Tk.Kind != TokKind::Punct || !assignOps().count(Tk.Text))
        continue;
      // Skip lambda-capture '[=]' and defaulted-parameter '=' noise.
      if (I > F->BodyBegin &&
          (T[I - 1].isPunct("[") || T[I - 1].isPunct(",")))
        continue;
      // Walk the left-hand side back to the nearest statement boundary.
      size_t B = I;
      while (B > F->BodyBegin) {
        const Token &Pt = T[B - 1];
        if (Pt.isPunct(";") || Pt.isPunct("{") || Pt.isPunct("}") ||
            Pt.isPunct("(") || Pt.isPunct(")") || Pt.isPunct(",") ||
            (Pt.Kind == TokKind::Punct && assignOps().count(Pt.Text)))
          break;
        --B;
      }
      // A declaration with CRAFTY_PMEM on the left is initializing the
      // annotated variable itself, not storing through it.
      bool IsPmDecl = false;
      for (size_t J = B; J < I; ++J)
        if (T[J].isIdent() && T[J].Text == "CRAFTY_PMEM")
          IsPmDecl = true;
      if (IsPmDecl)
        continue;
      Lvalue L = parseLvalue(T, B, I);
      std::string What = classifyPmStore(storeCtx(), L, /*ForMemWrite=*/false);
      if (!What.empty())
        diag(RulePmRawStore, PF->Lex, Tk.Line, F->QualName,
             "raw store through " + What +
                 " bypasses the Crafty undo log; persistent writes must go "
                 "through the transactional store API (HtmTx::store / "
                 "TxnContext::store) or persistDirect during "
                 "format/recovery");
    }
  }

  //===--------------------------------------------------------------------===//
  // Rule 2: htm-unsafe-call
  //===--------------------------------------------------------------------===//

  void checkHtmUnsafe() {
    if (!FAnn.TxBody)
      return;
    std::set<const FunctionInfo *> Visited;
    std::vector<std::string> Chain{F->QualName};
    walkTx(*F, Visited, Chain, /*Depth=*/0);
  }

  void walkTx(const FunctionInfo &Fn, std::set<const FunctionInfo *> &Visited,
              std::vector<std::string> &Chain, int Depth) {
    if (Depth > 32 || !Visited.insert(&Fn).second)
      return;
    const std::vector<Token> &T = Fn.Owner->Toks;
    for (const CallSite &S : collectSites(T, Fn.BodyBegin, Fn.BodyEnd)) {
      if (S.Kind != CallSite::Call) {
        const char *What = S.Kind == CallSite::KwNew      ? "operator new"
                           : S.Kind == CallSite::KwDelete ? "operator delete"
                                                          : "throw";
        emitUnsafe(Fn, S.Line, What,
                   std::string(What) +
                       " allocates or unwinds, which aborts hardware "
                       "transactions",
                   Chain);
        continue;
      }
      Annotations Ann =
          Reg.lookupCall(!S.ClassHint.empty() ? S.ClassHint : Fn.ClassName,
                         S.Name);
      if (Ann.HtmUnsafe) {
        emitUnsafe(Fn, S.Line, S.Name,
                   "'" + S.Name + "' is annotated CRAFTY_HTM_UNSAFE", Chain);
        continue;
      }
      if (Ann.TxSafe || Ann.TxStoreApi || Ann.DrainApi)
        continue; // Trusted barrier; do not descend.
      std::vector<const FunctionInfo *> Cands =
          Sums.resolveCallees(Fn.ClassName, S);
      if (!Cands.empty()) {
        for (const FunctionInfo *D : Cands) {
          Chain.push_back(D->QualName);
          walkTx(*D, Visited, Chain, Depth + 1);
          Chain.pop_back();
        }
        continue;
      }
      if (S.IsFree && builtinUnsafe().count(S.Name))
        emitUnsafe(Fn, S.Line, S.Name,
                   "'" + S.Name +
                       "' may allocate, block or enter the kernel, any of "
                       "which aborts hardware transactions",
                   Chain);
    }
  }

  void emitUnsafe(const FunctionInfo &Site, int Line, const std::string &What,
                  const std::string &Why,
                  const std::vector<std::string> &Chain) {
    std::ostringstream Msg;
    Msg << "transaction body '" << Chain.front() << "' reaches HTM-unsafe "
        << "operation '" << What << "'";
    if (Chain.size() > 1) {
      Msg << " via ";
      for (size_t I = 0; I < Chain.size(); ++I) {
        if (I)
          Msg << " -> ";
        Msg << Chain[I];
      }
    }
    Msg << ": " << Why
        << "; hoist it out of the transaction or mark an intentional "
           "boundary CRAFTY_TX_SAFE";
    // Attribute to the tx-body root, locate at the offending call site.
    diag(RuleHtmUnsafeCall, *Site.Owner, Line, Chain.front(), Msg.str());
  }

  //===--------------------------------------------------------------------===//
  // Rule 3: flush-without-drain (forward may-analysis over the CFG)
  //===--------------------------------------------------------------------===//

  /// Applies the flush/drain calls in [B, E) to \p S in token order. A
  /// callee known to drain on every path (AlwaysDrains summary) counts as
  /// a drain, so `persist()`-style wrappers are understood without a raw
  /// fence at the call site.
  void applyFlushEvents(FlushState &S, size_t B, size_t E,
                        const std::vector<std::pair<size_t, size_t>> *Holes)
      const {
    static const std::vector<std::pair<size_t, size_t>> NoHoles;
    const std::vector<Token> &T = PF->Lex.Toks;
    forEachTok(B, E, Holes ? *Holes : NoHoles, [&](size_t I) {
      if (!T[I].isIdent() || I + 1 >= T.size() || !T[I + 1].isPunct("("))
        return;
      if (isKeyword(T[I].Text))
        return;
      CallSite CS;
      CS.Name = T[I].Text;
      classifyReceiver(T, I, B, CS);
      Annotations Ann = Reg.lookupCall(
          !CS.ClassHint.empty() ? CS.ClassHint : F->ClassName, CS.Name);
      bool Flush = Ann.FlushApi || isRawFlushName(T[I].Text);
      bool Drain = Ann.DrainApi || isRawDrainName(T[I].Text);
      if (!Flush && !Drain && calleeAlwaysDrains(CS))
        Drain = true;
      if (Flush) {
        S.Pending = true;
        S.FlushLine = T[I].Line;
        S.FlushName = T[I].Text;
      }
      if (Drain)
        S.Pending = false;
    });
  }

  bool calleeAlwaysDrains(const CallSite &CS) const {
    std::vector<const FunctionInfo *> Cands =
        Sums.resolveCallees(F->ClassName, CS);
    if (Cands.empty())
      return false;
    for (const FunctionInfo *D : Cands)
      if (!Sums.get(D).AlwaysDrains)
        return false;
    return true;
  }

  struct FlushAnalysis {
    using State = FlushState;
    const Checker &C;
    const Cfg &G;

    State boundary() const { return State{}; }
    bool join(State &Dst, const State &Src) const {
      if (Src.Pending && !Dst.Pending) {
        Dst = Src;
        return true;
      }
      return false;
    }
    State transfer(int B, State In) const {
      for (const CfgAtom &A : G.Blocks[B].Atoms)
        C.applyFlushEvents(In, A.B, A.E, A.Holes);
      return In;
    }
  };

  void checkFlushWithoutDrain(const FuncIR &IR) {
    if (FAnn.DrainDeferred || FAnn.FlushApi || FAnn.DrainApi)
      return; // Primitive or deliberately-deferred (HTM commit fences).
    const Cfg &G = IR.G;
    FlushAnalysis A{*this, G};
    DataflowResult<FlushState> R = solveForward(G, A);

    // Returns: replay each reached block and look at the state right
    // after each Ret atom's expression.
    for (size_t B = 0; B < G.Blocks.size(); ++B) {
      if (!R.Reached[B])
        continue;
      FlushState S = R.In[B];
      for (const CfgAtom &At : G.Blocks[B].Atoms) {
        applyFlushEvents(S, At.B, At.E, At.Holes);
        if (At.Kind == CfgAtom::Ret && S.Pending)
          diag(RuleFlushWithoutDrain, PF->Lex, S.FlushLine, F->QualName,
               "cache-line write-back '" + S.FlushName + "' (line " +
                   std::to_string(S.FlushLine) + ") can leave '" +
                   F->QualName + "' through the return at line " +
                   std::to_string(At.Line) +
                   " with no drain; clwb only *schedules* the write-back -- "
                   "call drain()/persistBarrier(), or mark the function "
                   "CRAFTY_DRAIN_DEFERRED if the next HTM commit fence is "
                   "the drain");
      }
    }
    // End of function: join the out-states of blocks that fall through to
    // the synthetic exit (returns already reported above).
    FlushState End;
    for (int P : G.Blocks[G.Exit].Preds) {
      if (!G.Blocks[P].FallsToExit || !R.Reached[P])
        continue;
      FlushState S = R.In[P];
      for (const CfgAtom &At : G.Blocks[P].Atoms)
        applyFlushEvents(S, At.B, At.E, At.Holes);
      if (S.Pending && !End.Pending)
        End = S;
    }
    if (End.Pending)
      diag(RuleFlushWithoutDrain, PF->Lex, End.FlushLine, F->QualName,
           "cache-line write-back '" + End.FlushName + "' (line " +
               std::to_string(End.FlushLine) +
               ") can reach the end of '" + F->QualName +
               "' with no drain; clwb only *schedules* the write-back -- "
               "call drain()/persistBarrier(), or mark the function "
               "CRAFTY_DRAIN_DEFERRED if the next HTM commit fence is the "
               "drain");
  }

  //===--------------------------------------------------------------------===//
  // Rule 4: unbounded-tx-writes
  //===--------------------------------------------------------------------===//

  void checkUnboundedTxWrites(const Stmt &S, bool InLambda) {
    if (S.Kind == Stmt::Loop && !S.Kids.empty()) {
      if (subtreeHasTxStore(S.Kids[0]) && !loopBounded(S) &&
          !subtreeHasTxBound(S))
        diag(RuleUnboundedTxWrites, PF->Lex, S.Line, F->QualName,
             "loop at line " + std::to_string(S.Line) +
                 " issues transactional stores with no visible iteration "
                 "bound; HTM write capacity is finite (the reason for "
                 "KvConfig::BatchTxnLimit) -- chunk the loop or assert the "
                 "bound with CRAFTY_TX_BOUND(n)");
    }
    for (const Stmt &K : S.Kids)
      checkUnboundedTxWrites(K, InLambda || S.Kind == Stmt::Lambda);
  }

  /// Does this subtree issue CRAFTY_TX_STORE_API calls, directly or
  /// through a resolvable callee whose summary says it does? Lambda bodies
  /// are excluded: a lambda is a transaction-body boundary (the enclosing
  /// loop typically spans *multiple* transactions, as in KvShard::runCycle),
  /// and its own loops are visited separately.
  bool subtreeHasTxStore(const Stmt &S) const {
    if (S.Kind == Stmt::Lambda)
      return false;
    if (S.Kind == Stmt::Expr || S.Kind == Stmt::Return) {
      const std::vector<Token> &T = PF->Lex.Toks;
      bool Found = false;
      forEachTok(S.ExprB, S.ExprE, S.Holes, [&](size_t I) {
        if (Found || !T[I].isIdent() || I + 1 >= T.size() ||
            !T[I + 1].isPunct("(") || isKeyword(T[I].Text))
          return;
        std::string ClassHint;
        if (I >= 2 && T[I - 1].isPunct("::") && T[I - 2].isIdent())
          ClassHint = T[I - 2].Text;
        Annotations Ann = Reg.lookupCall(
            !ClassHint.empty() ? ClassHint : F->ClassName, T[I].Text);
        if (Ann.TxStoreApi && !isAtomicStoreCall(T, I + 1)) {
          Found = true;
          return;
        }
        if (Ann.TxSafe || Ann.FlushApi || Ann.DrainApi)
          return;
        // Interprocedural: the callee's own (non-lambda) stores execute
        // inside whatever transaction surrounds this loop.
        CallSite CS;
        CS.Name = T[I].Text;
        classifyReceiver(T, I, S.ExprB, CS);
        for (const FunctionInfo *D : Sums.resolveCallees(F->ClassName, CS))
          if (!(Sums.effectiveAnn(*D).TxBody && !D->TakesTxContext) &&
              Sums.get(D).MayTxStore)
            Found = true;
      });
      if (Found)
        return true;
    }
    for (const Stmt &K : S.Kids)
      if (subtreeHasTxStore(K))
        return true;
    return false;
  }

  bool subtreeHasTxBound(const Stmt &S) const {
    const std::vector<Token> &T = PF->Lex.Toks;
    if (S.Kind == Stmt::Lambda)
      return false;
    auto RangeHas = [&](size_t B, size_t E,
                        const std::vector<std::pair<size_t, size_t>> &Holes) {
      bool Found = false;
      forEachTok(B, E, Holes, [&](size_t I) {
        if (T[I].isIdent() && T[I].Text == "CRAFTY_TX_BOUND")
          Found = true;
      });
      return Found;
    };
    if (RangeHas(S.HdrB, S.HdrE, {}) || RangeHas(S.ExprB, S.ExprE, S.Holes))
      return true;
    for (const Stmt &K : S.Kids)
      if (subtreeHasTxBound(K))
        return true;
    return false;
  }

  /// A loop is visibly bounded when its condition compares against a
  /// compile-time-constant-looking expression: a literal, a known
  /// const/constexpr/enum name, kCamelCase or ALL_CAPS.
  bool loopBounded(const Stmt &S) const {
    const std::vector<Token> &T = PF->Lex.Toks;
    size_t B = S.HdrB, E = S.HdrE;
    if (B >= E)
      return false; // for(;;) / empty condition: unbounded.
    // For a `for`, isolate the condition between the depth-0 semicolons;
    // for a range-for, the range expression after the depth-0 ':'.
    std::vector<size_t> Semis;
    size_t Colon = 0;
    size_t Depth = 0;
    for (size_t I = B; I < E; ++I) {
      if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{")) {
        ++Depth;
      } else if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}")) {
        if (Depth)
          --Depth;
      } else if (Depth == 0 && T[I].isPunct(";")) {
        Semis.push_back(I);
      } else if (Depth == 0 && T[I].isPunct(":") && !Colon) {
        Colon = I;
      }
    }
    if (Semis.size() >= 2) {
      B = Semis[0] + 1;
      E = Semis[1];
    } else if (Semis.empty() && Colon) {
      // Range-for: bounded iff the range expression itself is const-like
      // (e.g. a fixed std::array constant) -- rarely provable; usually the
      // fix is CRAFTY_TX_BOUND.
      return constLikeRange(Colon + 1, E);
    }
    if (B >= E)
      return false;
    // Any depth-0 comparison with a const-like side counts as a bound.
    Depth = 0;
    size_t SideB = B;
    static const std::set<std::string> CmpOps = {"<", "<=", ">", ">=", "!="};
    static const std::set<std::string> SplitOps = {"&&", "||", ","};
    for (size_t I = B; I <= E; ++I) {
      bool AtEnd = I == E;
      if (!AtEnd) {
        if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{")) {
          ++Depth;
          continue;
        }
        if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}")) {
          if (Depth)
            --Depth;
          continue;
        }
        if (Depth != 0)
          continue;
      }
      bool IsCmp = !AtEnd && T[I].Kind == TokKind::Punct &&
                   CmpOps.count(T[I].Text);
      bool IsSplit = AtEnd || (T[I].Kind == TokKind::Punct &&
                               SplitOps.count(T[I].Text));
      if (IsCmp) {
        if (constLikeRange(SideB, I))
          return true;
        SideB = I + 1;
      } else if (IsSplit) {
        if (SideB > B && constLikeRange(SideB, I))
          return true; // Right side of the last comparison in this clause.
        SideB = I + 1;
      }
    }
    return false;
  }

  /// Every identifier is const-like and only arithmetic/grouping appears.
  bool constLikeRange(size_t B, size_t E) const {
    const std::vector<Token> &T = PF->Lex.Toks;
    if (B >= E)
      return false;
    static const std::set<std::string> OkPunct = {"+", "-", "*", "/", "%",
                                                  "(", ")", "<<", ">>", "::"};
    bool SawOperand = false;
    for (size_t I = B; I < E; ++I) {
      const Token &Tk = T[I];
      if (Tk.Kind == TokKind::Number) {
        SawOperand = true;
        continue;
      }
      if (Tk.isIdent()) {
        if (Tk.Text == "sizeof" || isConstName(Tk.Text)) {
          SawOperand = true;
          continue;
        }
        return false;
      }
      if (Tk.Kind == TokKind::Punct && OkPunct.count(Tk.Text))
        continue;
      return false;
    }
    return SawOperand;
  }

  //===--------------------------------------------------------------------===//
  // Rule 5: persist-ordering (forward may-analysis over the CFG)
  //===--------------------------------------------------------------------===//

  /// Printable key for a store target, e.g. "hdr->Magic" or "pool.Gen".
  static std::string lvalueKey(const Lvalue &L) {
    std::string K = L.Root;
    for (const Access &A : L.Chain) {
      if (A.Kind == Access::Index)
        K += "[]";
      else
        K += (A.Kind == Access::Arrow ? "->" : ".") + A.Field;
    }
    return K;
  }

  /// Applies the persistent-store / flush / drain / publish events in
  /// [B, E) to \p S in token order. With \p Emit set, a publish store
  /// executed while some earlier store is not yet durable is diagnosed.
  void applyPersistEvents(PersistState &S, size_t B, size_t E,
                          const std::vector<std::pair<size_t, size_t>>
                              *Holes,
                          bool Emit) {
    static const std::vector<std::pair<size_t, size_t>> NoHoles;
    const std::vector<Token> &T = PF->Lex.Toks;
    forEachTok(B, E, Holes ? *Holes : NoHoles, [&](size_t I) {
      // Calls: flush schedules matched (or, unmatched, all) entries;
      // drain retires everything pending.
      if (T[I].isIdent() && I + 1 < T.size() && T[I + 1].isPunct("(") &&
          !isKeyword(T[I].Text)) {
        CallSite CS;
        CS.Name = T[I].Text;
        classifyReceiver(T, I, B, CS);
        Annotations Ann = Reg.lookupCall(
            !CS.ClassHint.empty() ? CS.ClassHint : F->ClassName, CS.Name);
        bool Drain = Ann.DrainApi || isRawDrainName(T[I].Text) ||
                     calleeAlwaysDrains(CS);
        if (Drain) {
          S.clear();
          return;
        }
        if (Ann.FlushApi || isRawFlushName(T[I].Text)) {
          std::set<std::string> ArgIds;
          for (auto &R : callArgRanges(T, I + 1, T.size()))
            for (size_t J = R.first; J < R.second; ++J)
              if (T[J].isIdent())
                ArgIds.insert(T[J].Text);
          bool Matched = false;
          for (auto &KV : S) {
            if (keyMatchesIds(KV.first, ArgIds)) {
              KV.second.Flushed = true;
              Matched = true;
            }
          }
          if (!Matched) // Bulk or unrecognized flush: assume it covers all.
            for (auto &KV : S)
              KV.second.Flushed = true;
          return;
        }
        // memcpy-family destination: a persistent store.
        if (memWriteFns().count(T[I].Text)) {
          auto Args = callArgRanges(T, I + 1, T.size());
          if (!Args.empty()) {
            size_t LvB = Args[0].first;
            while (LvB < Args[0].second && T[LvB].isPunct("&"))
              ++LvB;
            Lvalue L = parseLvalue(T, LvB, Args[0].second);
            if (!classifyPmStore(storeCtx(), L, /*ForMemWrite=*/true)
                     .empty())
              S[lvalueKey(L)] = PendEntry{T[I].Line, false};
          }
          return;
        }
        return;
      }
      // Assignments.
      if (T[I].Kind != TokKind::Punct || !assignOps().count(T[I].Text))
        return;
      if (I > B && (T[I - 1].isPunct("[") || T[I - 1].isPunct(",")))
        return;
      size_t LvB = I;
      while (LvB > B) {
        const Token &Pt = T[LvB - 1];
        if (Pt.isPunct(";") || Pt.isPunct("{") || Pt.isPunct("}") ||
            Pt.isPunct("(") || Pt.isPunct(")") || Pt.isPunct(",") ||
            (Pt.Kind == TokKind::Punct && assignOps().count(Pt.Text)))
          break;
        --LvB;
      }
      bool IsPmDecl = false;
      for (size_t J = LvB; J < I; ++J)
        if (T[J].isIdent() && T[J].Text == "CRAFTY_PMEM")
          IsPmDecl = true;
      if (IsPmDecl)
        return;
      Lvalue L = parseLvalue(T, LvB, I);
      if (!L.Valid)
        return;
      bool Publish = isPublishStore(storeCtx(), L);
      std::string PubKey = lvalueKey(L);
      if (Publish && Emit && !S.empty()) {
        // Report against the oldest pending store (ignoring the publish
        // target itself, which may legitimately be rewritten).
        const std::string *Key = nullptr;
        const PendEntry *Ent = nullptr;
        for (const auto &KV : S) {
          if (KV.first == PubKey)
            continue;
          if (!Ent || KV.second.Line < Ent->Line) {
            Key = &KV.first;
            Ent = &KV.second;
          }
        }
        if (Ent) {
          std::string Why =
              Ent->Flushed
                  ? "is flushed but not drained; clwb only *schedules* the "
                    "write-back -- drain (persistBarrier) before publishing"
                  : "is not even flushed; flush and drain it before "
                    "publishing";
          diag(RulePersistOrdering, PF->Lex, T[I].Line, F->QualName,
               "publish store to '" + PubKey + "' can execute while the "
                   "persistent store to '" + *Key + "' (line " +
                   std::to_string(Ent->Line) + ") " + Why +
                   ", or a crash makes the commit marker durable before "
                   "the data it covers");
        }
      }
      if (!classifyPmStore(storeCtx(), L, /*ForMemWrite=*/false).empty())
        S[PubKey] = PendEntry{T[I].Line, false};
    });
  }

  static bool keyMatchesIds(const std::string &Key,
                            const std::set<std::string> &Ids) {
    // Split the key back into identifiers and match any of them.
    std::string Cur;
    for (char C : Key + "\n") {
      if (std::isalnum((unsigned char)C) || C == '_') {
        Cur.push_back(C);
      } else {
        if (!Cur.empty() && Ids.count(Cur))
          return true;
        Cur.clear();
      }
    }
    return false;
  }

  struct PersistAnalysis {
    using State = PersistState;
    Checker &C;
    const Cfg &G;

    State boundary() const { return State{}; }
    bool join(State &Dst, const State &Src) const {
      bool Changed = false;
      for (const auto &KV : Src) {
        auto It = Dst.find(KV.first);
        if (It == Dst.end()) {
          Dst.insert(KV);
          Changed = true;
        } else if (It->second.Flushed && !KV.second.Flushed) {
          // Unflushed-on-some-path is the more hazardous fact.
          It->second.Flushed = false;
          Changed = true;
        }
      }
      return Changed;
    }
    State transfer(int B, State In) {
      for (const CfgAtom &A : G.Blocks[B].Atoms)
        C.applyPersistEvents(In, A.B, A.E, A.Holes, /*Emit=*/false);
      return In;
    }
  };

  void checkPersistOrdering(const FuncIR &IR) {
    // Transaction bodies order their stores through the HTM commit fence;
    // deferred-drain and trusted primitives are the mechanism itself.
    if (FAnn.TxBody || FAnn.DrainDeferred || FAnn.FlushApi || FAnn.DrainApi ||
        FAnn.TxSafe || FAnn.TxStoreApi)
      return;
    if (Reg.PublishFieldNames.empty())
      return; // Nothing to order against.
    const Cfg &G = IR.G;
    PersistAnalysis A{*this, G};
    DataflowResult<PersistState> R = solveForward(G, A);
    for (size_t B = 0; B < G.Blocks.size(); ++B) {
      if (!R.Reached[B])
        continue;
      PersistState S = R.In[B];
      for (const CfgAtom &At : G.Blocks[B].Atoms)
        applyPersistEvents(S, At.B, At.E, At.Holes, /*Emit=*/true);
    }
  }

  //===--------------------------------------------------------------------===//
  // Rule 6: pm-escape
  //===--------------------------------------------------------------------===//

  void checkPmEscape() {
    // Outside the transaction cone a stashed pm pointer is ordinary
    // (recovery/setup code passes pool pointers around freely); inside it,
    // the pointer outlives the undo log's protection.
    if (!Sums.inTxCone(F))
      return;
    if (FAnn.TxSafe || FAnn.TxStoreApi || FAnn.FlushApi || FAnn.DrainApi)
      return;
    diagnoseEscapes(*F, Sums, [&](int Line, const std::string &What) {
      diag(RulePmEscape, PF->Lex, Line, F->QualName,
           What + "; a raw pointer into the pool that outlives the "
                  "transaction bypasses undo logging -- copy the value out, "
                  "or keep the pointer inside the transaction scope");
    });
  }

  //===--------------------------------------------------------------------===//
  // Rule 7: tx-capacity
  //===--------------------------------------------------------------------===//

  void checkTxCapacity() {
    if (!FAnn.TxBody)
      return;
    TxBound Bound = Sums.get(F).TxnBound;
    CapacityEntry CE;
    CE.QualName = F->QualName;
    CE.File = PF->Lex.Path;
    CE.Line = F->Line;
    CE.Bound = Bound.str();
    Capacities.push_back(CE);

    if (Bound.K == TxBound::Unbounded) {
      diag(RuleTxCapacity, PF->Lex, F->Line, F->QualName,
           "no static write-set bound for transaction body '" + F->QualName +
               "': a store-issuing path has no visible iteration bound, so "
               "the transaction can exceed HTM write capacity -- bound every "
               "loop (CRAFTY_TX_BOUND) or split the transaction");
      return;
    }
    if (Bound.K != TxBound::Finite)
      return; // Asserted: the author vouches, nothing to compare.
    if (Bound.N > Opt.TxCapacityBudget)
      diag(RuleTxCapacity, PF->Lex, F->Line, F->QualName,
           "transaction body '" + F->QualName + "' can issue up to " +
               std::to_string(Bound.N) +
               " transactional stores, over the HTM write-capacity budget "
               "of " + std::to_string(Opt.TxCapacityBudget) +
               " words -- split the transaction or chunk its loops");
    auto Declared = Sums.declaredCapacity(*F);
    if (Declared && Bound.N > *Declared)
      diag(RuleTxCapacity, PF->Lex, F->Line, F->QualName,
           "transaction body '" + F->QualName + "' can issue up to " +
               std::to_string(Bound.N) +
               " transactional stores, over its declared "
               "CRAFTY_TX_CAPACITY(" + std::to_string(*Declared) + ")");
  }
};

} // namespace

CheckResult runChecks(const std::vector<const ParsedFile *> &Targets,
                      const Summaries &Sums, const CheckOptions &Opt) {
  Checker C(Targets, Sums, Opt);
  return C.run();
}

} // namespace craftylint
