//===- tools/crafty-lint/Summary.cpp - Call-graph summaries ---------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Summary.h"

#include "Dataflow.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <set>

namespace craftylint {

std::string TxBound::str() const {
  switch (K) {
  case Finite:
    return std::to_string(N);
  case Asserted:
    return "asserted";
  case Unbounded:
    return "unbounded";
  }
  return "?";
}

const FuncSummary &Summaries::get(const FunctionInfo *F) const {
  static const FuncSummary Empty;
  auto It = Map.find(F);
  return It != Map.end() ? It->second : Empty;
}

Annotations Summaries::effectiveAnn(const FunctionInfo &F) const {
  Annotations A = F.Ann;
  auto It = Reg.AnnByQual.find(F.QualName);
  if (It != Reg.AnnByQual.end())
    A.merge(It->second);
  return A;
}

const FuncIR *Summaries::ir(const FunctionInfo *F) const {
  auto It = IRs.find(F);
  return It != IRs.end() ? It->second.get() : nullptr;
}

std::optional<long long>
Summaries::declaredCapacity(const FunctionInfo &F) const {
  // The annotation may sit on the in-class declaration rather than the
  // out-of-line definition, so fall back to the qualified-name index
  // (filled from prototypes too).
  const std::vector<Token> *Toks = F.CapacityToks.empty() ? nullptr
                                                          : &F.CapacityToks;
  if (!Toks) {
    auto It = CapacityByQual.find(F.QualName);
    if (It != CapacityByQual.end())
      Toks = &It->second->CapacityToks;
  }
  if (!Toks)
    return std::nullopt;
  return evalConstExpr(*Toks, 0, Toks->size(), Reg.IntConstValues);
}

/// Method names shared with the standard library containers, strings,
/// streams and atomics. An unknown-receiver call spelled `X.size()` is
/// overwhelmingly more likely to be a std::vector than the one project
/// class that happens to define a `size`, so these names never take the
/// unambiguous-simple-name upgrade below.
static bool isGenericMethodName(const std::string &N) {
  static const std::set<std::string> G = {
      "size",       "empty",      "clear",       "begin",      "end",
      "rbegin",     "rend",       "front",       "back",       "push_back",
      "pop_back",   "emplace_back", "emplace",   "emplace_front", "insert",
      "erase",      "find",       "count",       "at",         "data",
      "c_str",      "str",        "append",      "substr",     "resize",
      "reserve",    "capacity",   "swap",        "reset",      "release",
      "get",        "load",       "store",       "exchange",   "fetch_add",
      "fetch_sub",  "fetch_or",   "fetch_and",   "lock",       "unlock",
      "try_lock",   "wait",       "notify_one",  "notify_all", "open",
      "close",      "good",       "fail",        "eof",        "read",
      "write",      "run",        "first",       "second",     "value",
      "has_value",  "value_or",   "push",        "pop",        "top",
      "length",     "compare",    "assign",      "copy",       "fill",
      "compare_exchange_weak", "compare_exchange_strong",
  };
  return G.count(N) != 0;
}

std::vector<const FunctionInfo *>
Summaries::resolveCallees(const std::string &CallerClass,
                          const CallSite &S) const {
  std::vector<const FunctionInfo *> Cands;
  auto DIt = Reg.DefsBySimple.find(S.Name);
  if (DIt == Reg.DefsBySimple.end())
    return Cands;
  for (const FunctionInfo *D : DIt->second) {
    bool Match;
    if (!S.ClassHint.empty())
      Match = D->ClassName == S.ClassHint;
    else if (S.GlobalScope)
      Match = D->ClassName.empty();
    else if (S.IsFree) // Unqualified: same class or a free function.
      Match = D->ClassName.empty() || D->ClassName == CallerClass;
    else // Member call through an unknown receiver.
      Match = false;
    if (Match)
      Cands.push_back(D);
  }
  // Unambiguous-simple-name upgrade: `Map->putTx(...)` has an unknown
  // receiver type at token level, but when the whole program holds exactly
  // one definition of `putTx` the call can only mean it. Names the
  // standard library also uses are exempt -- there the receiver is usually
  // a std type, not the one project class sharing the name.
  if (Cands.empty() && S.ClassHint.empty() && !S.GlobalScope &&
      DIt->second.size() == 1 && !isGenericMethodName(S.Name))
    Cands.push_back(DIt->second.front());
  return Cands;
}

//===----------------------------------------------------------------------===//
// Capacity bounds
//===----------------------------------------------------------------------===//

namespace {

/// Finds a CRAFTY_TX_BOUND(n) asserting this loop's iteration count:
/// anywhere in the loop subtree, but not under a nested Loop or Lambda
/// (those bound the inner construct). Returns the strongest evaluable
/// value, or Asserted when present but not evaluable.
std::optional<TxBound> findTxBound(const std::vector<Token> &T, const Stmt &S,
                                   const Registry &Reg, bool IsRoot) {
  if (!IsRoot && (S.Kind == Stmt::Loop || S.Kind == Stmt::Lambda))
    return std::nullopt;
  std::optional<TxBound> Best;
  auto Consider = [&](size_t B, size_t E,
                      const std::vector<std::pair<size_t, size_t>> &Holes) {
    forEachTok(B, E, Holes, [&](size_t I) {
      if (!T[I].isIdent() || !T[I].is("CRAFTY_TX_BOUND"))
        return;
      if (I + 1 >= T.size() || !T[I + 1].isPunct("("))
        return;
      size_t Close = matchForward(T, I + 1, T.size());
      auto V = evalConstExpr(T, I + 2, Close, Reg.IntConstValues);
      TxBound Bd = V ? TxBound::finite(*V) : TxBound::asserted();
      if (!Best)
        Best = Bd;
      else if (Best->K == TxBound::Asserted && Bd.K == TxBound::Finite)
        Best = Bd;
      else if (Best->K == TxBound::Finite && Bd.K == TxBound::Finite &&
               Bd.N > Best->N)
        Best = Bd;
    });
  };
  Consider(S.HdrB, S.HdrE, {});
  Consider(S.ExprB, S.ExprE, S.Holes);
  for (const Stmt &K : S.Kids) {
    auto Sub = findTxBound(T, K, Reg, /*IsRoot=*/false);
    if (Sub) {
      if (!Best)
        Best = Sub;
      else if (Best->K == TxBound::Asserted && Sub->K == TxBound::Finite)
        Best = Sub;
      else if (Best->K == TxBound::Finite && Sub->K == TxBound::Finite &&
               Sub->N > Best->N)
        Best = Sub;
    }
  }
  return Best;
}

/// Constant trip count for `for (i = C0; i < C1; ...)`-shaped headers.
std::optional<long long> constTripCount(const std::vector<Token> &T, size_t B,
                                        size_t E, const Registry &Reg) {
  // Split init; cond; step at depth-0 semicolons.
  std::vector<size_t> Semis;
  int Depth = 0;
  for (size_t I = B; I < E; ++I) {
    if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{"))
      ++Depth;
    else if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}")) {
      if (Depth)
        --Depth;
    } else if (Depth == 0 && T[I].isPunct(";"))
      Semis.push_back(I);
  }
  size_t CondB = B, CondE = E;
  long long Init = 0;
  bool HaveInit = false;
  if (Semis.size() >= 2) {
    CondB = Semis[0] + 1;
    CondE = Semis[1];
    // Init: `... i = <expr>`.
    for (size_t I = B; I < Semis[0]; ++I)
      if (T[I].isPunct("=")) {
        auto V = evalConstExpr(T, I + 1, Semis[0], Reg.IntConstValues);
        if (V) {
          Init = *V;
          HaveInit = true;
        }
        break;
      }
  } else if (!Semis.empty()) {
    return std::nullopt;
  } else {
    // `while (i < C)`: unknown start value.
    return std::nullopt;
  }
  // Cond: `<ident> <cmp> <expr>` with an evaluable right side.
  for (size_t I = CondB; I < CondE; ++I) {
    if (T[I].Kind != TokKind::Punct)
      continue;
    const std::string &Op = T[I].Text;
    if (Op != "<" && Op != "<=" && Op != "!=")
      continue;
    auto Limit = evalConstExpr(T, I + 1, CondE, Reg.IntConstValues);
    if (!Limit || !HaveInit)
      return std::nullopt;
    long long Trips = *Limit - Init + (Op == "<=" ? 1 : 0);
    return Trips >= 0 ? std::optional<long long>(Trips) : std::nullopt;
  }
  return std::nullopt;
}

} // namespace

TxBound Summaries::costRange(const FunctionInfo &F, size_t B, size_t E,
                             const std::vector<std::pair<size_t, size_t>>
                                 *Holes) {
  const std::vector<Token> &T = F.Owner->Toks;
  TxBound C = TxBound::finite(0);
  for (const CallSite &CS : collectSites(T, B, E, Holes)) {
    if (CS.Kind != CallSite::Call)
      continue;
    Annotations Ann = Reg.lookupCall(
        !CS.ClassHint.empty() ? CS.ClassHint : F.ClassName, CS.Name);
    if (Ann.TxStoreApi) {
      if (!isAtomicStoreCall(T, CS.lparen()))
        C = C + TxBound::finite(1);
      continue;
    }
    if (Ann.TxSafe || Ann.FlushApi || Ann.DrainApi || Ann.HtmUnsafe)
      continue; // Trusted primitive / already diagnosed elsewhere.
    TxBound CalleeMax = TxBound::finite(0);
    for (const FunctionInfo *D : resolveCallees(F.ClassName, CS)) {
      // A TX_BODY callee with no TxnContext parameter begins its own
      // transaction; its stores are not part of this write set. With one
      // it runs inside ours, so its inline stores count.
      if (effectiveAnn(*D).TxBody && !D->TakesTxContext)
        continue;
      CalleeMax = TxBound::max(CalleeMax, inlineBoundOf(D));
    }
    C = C + CalleeMax;
  }
  return C;
}

TxBound Summaries::costStmt(const FunctionInfo &F, const Stmt &S) {
  const std::vector<Token> &T = F.Owner->Toks;
  switch (S.Kind) {
  case Stmt::Seq: {
    TxBound C = TxBound::finite(0);
    for (const Stmt &K : S.Kids)
      C = C + costStmt(F, K);
    return C;
  }
  case Stmt::Expr:
  case Stmt::Return:
    return costRange(F, S.ExprB, S.ExprE, &S.Holes);
  case Stmt::If: {
    TxBound H = costRange(F, S.HdrB, S.HdrE, nullptr);
    TxBound A = S.Kids.empty() ? TxBound::finite(0) : costStmt(F, S.Kids[0]);
    TxBound B = S.Kids.size() > 1 ? costStmt(F, S.Kids[1])
                                  : TxBound::finite(0);
    return H + TxBound::max(A, B);
  }
  case Stmt::Switch: {
    // One invocation runs one arm: from its case label to a break that is
    // a statement of the switch body or ends a braced block at that level
    // (`case X: { ...; break; }`). An arm without such a break falls
    // through, so its cost adds to the next arm's.
    TxBound H = costRange(F, S.HdrB, S.HdrE, nullptr);
    if (S.Kids.empty())
      return H;
    const Stmt &Body = S.Kids[0];
    if (Body.Kind != Stmt::Seq)
      return H + costStmt(F, Body);
    TxBound Worst = TxBound::finite(0), Arm = TxBound::finite(0);
    for (const Stmt &K : Body.Kids) {
      Arm = Arm + costStmt(F, K);
      bool Ends = K.Kind == Stmt::Break ||
                  (K.Kind == Stmt::Seq && !K.Kids.empty() &&
                   K.Kids.back().Kind == Stmt::Break);
      if (Ends) {
        Worst = TxBound::max(Worst, Arm);
        Arm = TxBound::finite(0);
      }
    }
    return H + TxBound::max(Worst, Arm);
  }
  case Stmt::Loop: {
    TxBound Per = costRange(F, S.HdrB, S.HdrE, nullptr);
    if (!S.Kids.empty())
      Per = Per + costStmt(F, S.Kids[0]);
    if (Per.isZero())
      return Per;
    auto Asserted = findTxBound(T, S, Reg, /*IsRoot=*/true);
    if (Asserted) {
      if (Asserted->K == TxBound::Finite)
        return Per.scaled(Asserted->N);
      return Per.K == TxBound::Unbounded ? TxBound::unbounded()
                                         : TxBound::asserted();
    }
    auto Trips = constTripCount(T, S.HdrB, S.HdrE, Reg);
    if (Trips)
      return Per.scaled(*Trips);
    return TxBound::unbounded();
  }
  case Stmt::Case:
  case Stmt::Break:
  case Stmt::Continue:
  case Stmt::Lambda: // Transaction boundary: not part of this invocation.
    return TxBound::finite(0);
  }
  return TxBound::finite(0);
}

TxBound Summaries::inlineBoundOf(const FunctionInfo *F) {
  auto MIt = InlineMemo.find(F);
  if (MIt != InlineMemo.end())
    return MIt->second;
  if (!F->hasBody())
    return TxBound::finite(0);
  if (!Visiting.insert(F).second) {
    // Recursion back-edge: seed zero so a store-free recursive walker
    // (audit/count traversals) stays zero; the cycle head promotes to
    // Unbounded below if any stores exist in the cycle body.
    CycleHit.insert(F);
    return TxBound::finite(0);
  }
  const FuncIR *IR = ir(F);
  TxBound B = IR ? costStmt(*F, IR->Tree) : TxBound::finite(0);
  Visiting.erase(F);
  if (CycleHit.erase(F) && !B.isZero())
    B = TxBound::unbounded(); // Recursion that stores: no static bound.
  InlineMemo[F] = B;
  return B;
}

TxBound Summaries::lambdaMax(const FunctionInfo &F, const Stmt &S) {
  TxBound Best = TxBound::finite(0);
  if (S.Kind == Stmt::Lambda && !S.Kids.empty())
    Best = TxBound::max(Best, costStmt(F, S.Kids[0]));
  for (const Stmt &K : S.Kids)
    Best = TxBound::max(Best, lambdaMax(F, K));
  return Best;
}

TxBound Summaries::txnBoundOf(const FunctionInfo *F) {
  auto MIt = TxnMemo.find(F);
  if (MIt != TxnMemo.end())
    return MIt->second;
  if (!Visiting.insert(F).second)
    return inlineBoundOf(F);
  TxBound B = inlineBoundOf(F);
  const FuncIR *IR = ir(F);
  if (IR) {
    B = TxBound::max(B, lambdaMax(*F, IR->Tree));
    const std::vector<Token> &T = F->Owner->Toks;
    for (const CallSite &CS : collectSites(T, F->BodyBegin, F->BodyEnd)) {
      if (CS.Kind != CallSite::Call)
        continue;
      Annotations Ann = Reg.lookupCall(
          !CS.ClassHint.empty() ? CS.ClassHint : F->ClassName, CS.Name);
      if (Ann.TxStoreApi || Ann.TxSafe || Ann.FlushApi || Ann.DrainApi)
        continue;
      for (const FunctionInfo *D : resolveCallees(F->ClassName, CS))
        B = TxBound::max(B, txnBoundOf(D));
    }
  }
  Visiting.erase(F);
  TxnMemo[F] = B;
  return B;
}

//===----------------------------------------------------------------------===//
// AlwaysDrains (must-analysis over the CFG, to call-graph fixpoint)
//===----------------------------------------------------------------------===//

namespace {

struct DrainState {
  bool Drained = false;
};

struct DrainAnalysis {
  using State = DrainState;
  const Cfg &G;
  const FunctionInfo &F;
  const Registry &Reg;
  const Summaries &Sums;
  const std::map<const FunctionInfo *, FuncSummary> &Cur;

  State boundary() { return State{}; }
  bool join(State &Dst, const State &Src) {
    // Must-analysis: drained only when drained on every incoming path.
    if (Dst.Drained && !Src.Drained) {
      Dst.Drained = false;
      return true;
    }
    return false;
  }
  State transfer(int B, State In) {
    const std::vector<Token> &T = F.Owner->Toks;
    for (const CfgAtom &A : G.Blocks[B].Atoms) {
      for (const CallSite &CS : collectSites(T, A.B, A.E, A.Holes)) {
        if (CS.Kind != CallSite::Call)
          continue;
        Annotations Ann = Reg.lookupCall(
            !CS.ClassHint.empty() ? CS.ClassHint : F.ClassName, CS.Name);
        if (Ann.DrainApi || isRawDrainName(CS.Name)) {
          In.Drained = true;
          continue;
        }
        auto Cands = Sums.resolveCallees(F.ClassName, CS);
        if (!Cands.empty()) {
          bool All = true;
          for (const FunctionInfo *D : Cands) {
            auto It = Cur.find(D);
            if (It == Cur.end() || !It->second.AlwaysDrains)
              All = false;
          }
          if (All)
            In.Drained = true;
        }
      }
    }
    return In;
  }
};

} // namespace

void Summaries::computeDrains() {
  bool Changed = true;
  int Rounds = 0;
  while (Changed && Rounds++ < 6) {
    Changed = false;
    for (const FunctionInfo *F : Defs) {
      FuncSummary &S = Map[F];
      if (S.AlwaysDrains)
        continue;
      Annotations Ann = effectiveAnn(*F);
      bool Now = false;
      if (Ann.DrainApi) {
        Now = true;
      } else if (const FuncIR *IR = ir(F)) {
        DrainAnalysis A{IR->G, *F, Reg, *this, Map};
        auto R = solveForward(IR->G, A);
        Now = R.Reached[IR->G.Exit] && R.In[IR->G.Exit].Drained;
      }
      if (Now && !S.AlwaysDrains) {
        S.AlwaysDrains = true;
        Changed = true;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Escape analysis (gen/kill pointer tracking, interprocedural masks)
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t PmBit = 1u << 31;
constexpr uint32_t ParamBits = ~PmBit;

/// Flow-insensitive taint engine over one function body. In summary mode
/// the seeds are the parameters (bit i); in diagnosis mode additionally
/// every pm-derived source seeds PmBit and sinks are reported.
class EscapeEngine {
public:
  EscapeEngine(const FunctionInfo &F, const Registry &Reg,
               const Summaries &Sums,
               const std::map<const FunctionInfo *, FuncSummary> *CurMap)
      : F(F), Reg(Reg), Sums(Sums), CurMap(CurMap), T(F.Owner->Toks) {}

  uint32_t EscapesParam = 0;
  uint32_t ReturnsParam = 0;
  bool ReturnsPmAddr = false;
  std::vector<std::pair<int, std::string>> Sinks; // Diagnosis mode.

  void run(const Stmt &Tree, bool Diagnose) {
    DiagMode = Diagnose;
    collectVars(Tree);
    for (size_t I = 0; I < F.Params.size() && I < 31; ++I) {
      Taint[F.Params[I]] |= 1u << I;
      Locals.insert(F.Params[I]);
    }
    if (Diagnose)
      for (const PmVar &P : F.PmParams)
        if (P.IsPtr)
          Taint[P.Name] |= PmBit;
    // Flow-insensitive fixpoint: masks only grow, so iterate until a
    // round adds nothing, then (in diagnosis mode) one reporting pass
    // over the stable state.
    for (int Round = 0; Round < 4; ++Round) {
      DirtyRound = false;
      walk(Tree);
      if (!DirtyRound)
        break;
    }
    if (Diagnose) {
      Emit = true;
      walk(Tree);
    }
  }

private:
  const FunctionInfo &F;
  const Registry &Reg;
  const Summaries &Sums;
  const std::map<const FunctionInfo *, FuncSummary> *CurMap;
  const std::vector<Token> &T;
  bool DiagMode = false;
  bool DirtyRound = false;
  bool Emit = false;
  std::map<std::string, uint32_t> Taint;
  std::map<std::string, bool> PmVars; // pm params + locals -> IsPtr.
  std::set<std::string> Locals;

  const FuncSummary *summaryOf(const FunctionInfo *D) const {
    if (CurMap) {
      auto It = CurMap->find(D);
      return It != CurMap->end() ? &It->second : nullptr;
    }
    const FuncSummary &S = Sums.get(D);
    return &S;
  }

  void addTaint(const std::string &Name, uint32_t Mask) {
    if (!Mask)
      return;
    uint32_t &Cur = Taint[Name];
    if ((Cur | Mask) != Cur) {
      Cur |= Mask;
      DirtyRound = true;
    }
  }

  /// `Type [*&]* name [= ...]`: two or more depth-0 non-keyword
  /// identifiers before the '='/';', and no member access, declare the
  /// last one. Returns "" for non-declarations.
  std::string declTarget(size_t B, size_t E,
                         const std::vector<std::pair<size_t, size_t>>
                             &Holes) {
    std::vector<std::string> Ids;
    int Depth = 0;
    bool Simple = true;
    forEachTok(B, E, Holes, [&](size_t I) {
      if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{"))
        ++Depth;
      else if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}")) {
        if (Depth)
          --Depth;
      } else if (Depth == 0 && T[I].isIdent() && !isKeyword(T[I].Text) &&
                 T[I].Text.rfind("CRAFTY_", 0) != 0)
        Ids.push_back(T[I].Text);
      else if (Depth == 0 && (T[I].isPunct(".") || T[I].isPunct("->")))
        Simple = false; // Member store, not a declaration.
    });
    return Simple && Ids.size() >= 2 ? Ids.back() : std::string();
  }

  /// Local-declaration heuristic plus pm-var collection (mirrors the
  /// Checker's collectLocals).
  void collectVars(const Stmt &S) {
    if (S.Kind == Stmt::Expr && S.ExprB < S.ExprE) {
      size_t AI = findAssign(S.ExprB, S.ExprE, S.Holes);
      std::string D = declTarget(S.ExprB, AI ? AI : S.ExprE, S.Holes);
      if (!D.empty())
        Locals.insert(D);
      // CRAFTY_PMEM locals: `CRAFTY_PMEM Type [*] name ...`.
      bool Pm = false, Ptr = false, Stop = false;
      std::string Name;
      forEachTok(S.ExprB, S.ExprE, S.Holes, [&](size_t I) {
        if (Stop)
          return;
        if (T[I].isPunct("=") || T[I].isPunct("(")) {
          Stop = true;
          return;
        }
        if (T[I].is("CRAFTY_PMEM"))
          Pm = true;
        else if (T[I].isPunct("*"))
          Ptr = true;
        else if (T[I].isIdent() && !isKeyword(T[I].Text))
          Name = T[I].Text;
      });
      if (Pm && !Name.empty()) {
        PmVars[Name] = Ptr;
        Locals.insert(Name);
      }
    }
    for (const Stmt &K : S.Kids)
      if (K.Kind != Stmt::Lambda)
        collectVars(K);
  }

  size_t findAssign(size_t B, size_t E,
                    const std::vector<std::pair<size_t, size_t>> &Holes) {
    size_t Found = 0;
    int Depth = 0;
    forEachTok(B, E, Holes, [&](size_t I) {
      if (Found)
        return;
      if (T[I].isPunct("(") || T[I].isPunct("[") || T[I].isPunct("{")) {
        ++Depth;
        return;
      }
      if (T[I].isPunct(")") || T[I].isPunct("]") || T[I].isPunct("}")) {
        if (Depth)
          --Depth;
        return;
      }
      if (Depth != 0 || T[I].Kind != TokKind::Punct)
        return;
      if (!assignOps().count(T[I].Text))
        return;
      if (I > B && (T[I - 1].isPunct("[") || T[I - 1].isPunct(",")))
        return; // Lambda capture '[=]' / defaulted-argument noise.
      Found = I;
    });
    return Found;
  }

  StoreContext storeCtx() const {
    StoreContext Ctx;
    Ctx.Reg = &Reg;
    Ctx.PmVars = &PmVars;
    Ctx.ClassName = F.ClassName;
    return Ctx;
  }

  /// Taint mask of an expression range: identifiers outside call-argument
  /// lists contribute their taint; calls contribute through the callee's
  /// return-alias summary (their argument lists are walked for escaping
  /// arguments as a side effect); pm sources contribute PmBit.
  uint32_t maskOfRange(size_t B, size_t E,
                       const std::vector<std::pair<size_t, size_t>> &Holes) {
    uint32_t Mask = 0;
    std::vector<size_t> Idx;
    forEachTok(B, E, Holes, [&](size_t I) { Idx.push_back(I); });
    for (size_t P = 0; P < Idx.size(); ++P) {
      size_t I = Idx[P];
      const Token &Tk = T[I];
      // Address-of a persistent lvalue.
      if (Tk.isPunct("&") && P + 1 < Idx.size() && T[Idx[P + 1]].isIdent()) {
        size_t LvE = lvalueEnd(Idx[P + 1]);
        Lvalue L = parseLvalue(T, Idx[P + 1], LvE);
        if (!classifyPmStore(storeCtx(), L, /*ForMemWrite=*/true).empty())
          Mask |= PmBit;
        continue;
      }
      if (!Tk.isIdent() || isKeyword(Tk.Text))
        continue;
      // Call?
      if (P + 1 < Idx.size() && T[Idx[P + 1]].isPunct("(") &&
          Tk.Text.rfind("CRAFTY_", 0) != 0) {
        size_t LParen = Idx[P + 1];
        Mask |= processCall(I, LParen);
        size_t Close = matchForward(T, LParen, E);
        while (P + 1 < Idx.size() && Idx[P + 1] <= Close)
          ++P; // Skip the argument tokens; processCall handled them.
        continue;
      }
      // pm pointer variable used as a value.
      auto PV = PmVars.find(Tk.Text);
      if (PV != PmVars.end() && PV->second)
        Mask |= PmBit;
      // pm pointer *field* read (R.Slots / this->Slots).
      if (I > 0 && (T[I - 1].isPunct(".") || T[I - 1].isPunct("->"))) {
        auto FP = Reg.PmFieldIsPtr.find(Tk.Text);
        if (FP != Reg.PmFieldIsPtr.end() && FP->second &&
            Reg.PmFieldNames.count(Tk.Text))
          Mask |= PmBit;
        continue; // Field names do not resolve through local taint.
      }
      auto TI = Taint.find(Tk.Text);
      if (TI != Taint.end())
        Mask |= TI->second;
    }
    return Mask;
  }

  /// End of the lvalue token run starting at \p I (ident, then any
  /// sequence of ./-> member steps and [..] subscripts).
  size_t lvalueEnd(size_t I) {
    size_t J = I + 1;
    while (J < T.size()) {
      if ((T[J].isPunct(".") || T[J].isPunct("->")) && J + 1 < T.size() &&
          T[J + 1].isIdent()) {
        J += 2;
      } else if (T[J].isPunct("[")) {
        J = matchForward(T, J, T.size()) + 1;
      } else {
        break;
      }
    }
    return J;
  }

  /// Handles one call: argument escape checks; returns the return-value
  /// taint mask.
  uint32_t processCall(size_t NameIdx, size_t LParen) {
    std::string ClassHint;
    if (NameIdx >= 2 && T[NameIdx - 1].isPunct("::") &&
        T[NameIdx - 2].isIdent())
      ClassHint = T[NameIdx - 2].Text;
    Annotations Ann = Reg.lookupCall(
        !ClassHint.empty() ? ClassHint : F.ClassName, T[NameIdx].Text);
    auto Args = callArgRanges(T, LParen, T.size());
    std::vector<uint32_t> ArgMasks;
    for (auto &A : Args) {
      // Lambda-literal arguments are their own transaction scope;
      // captured-pointer flow through them is out of this engine's reach.
      if (A.first < A.second && T[A.first].isPunct("["))
        ArgMasks.push_back(0);
      else
        ArgMasks.push_back(maskOfRange(A.first, A.second, {}));
    }
    // Trusted transactional/persist primitives do not leak their
    // arguments (HtmTx::store records the address in its write set by
    // design; that is the sanctioned path, not an escape).
    if (Ann.TxStoreApi || Ann.TxSafe || Ann.FlushApi || Ann.DrainApi)
      return 0;
    CallSite CS;
    CS.Name = T[NameIdx].Text;
    CS.TokIdx = NameIdx;
    CS.Line = T[NameIdx].Line;
    classifyReceiver(T, NameIdx, 0, CS);
    uint32_t Ret = 0;
    auto Cands = Sums.resolveCallees(F.ClassName, CS);
    for (const FunctionInfo *D : Cands) {
      const FuncSummary *DS = summaryOf(D);
      if (!DS)
        continue;
      if (DS->Trusted)
        continue;
      for (size_t J = 0; J < ArgMasks.size() && J < 31; ++J) {
        if (DS->EscapesParam & (1u << J))
          escapeEvent(ArgMasks[J], T[NameIdx].Line,
                      "argument " + std::to_string(J + 1) + " of '" +
                          CS.Name + "' (which stores it beyond the call)");
        if (DS->ReturnsParam & (1u << J))
          Ret |= ArgMasks[J];
      }
      if (DS->ReturnsPmAddr)
        Ret |= PmBit;
    }
    return Ret;
  }

  void escapeEvent(uint32_t Mask, int Line, const std::string &Where) {
    EscapesParam |= Mask & ParamBits;
    if (DiagMode && Emit && (Mask & PmBit))
      Sinks.push_back(
          {Line, "address of CRAFTY_PMEM data escapes the transaction scope "
                 "via " +
                     Where});
  }

  void walk(const Stmt &S) {
    if (S.Kind == Stmt::Lambda)
      return; // Captured-pointer tracking across lambdas: out of scope.
    if (S.Kind == Stmt::Return && S.ExprB < S.ExprE) {
      uint32_t M = maskOfRange(S.ExprB, S.ExprE, S.Holes);
      uint32_t NewRet = ReturnsParam | (M & ParamBits);
      if (NewRet != ReturnsParam) {
        ReturnsParam = NewRet;
        DirtyRound = true;
      }
      if ((M & PmBit) && !ReturnsPmAddr) {
        ReturnsPmAddr = true;
        DirtyRound = true;
      }
    } else if (S.Kind == Stmt::Expr && S.ExprB < S.ExprE) {
      size_t AI = findAssign(S.ExprB, S.ExprE, S.Holes);
      if (AI) {
        uint32_t M = maskOfRange(AI + 1, S.ExprE, S.Holes);
        // Declaration with initializer: gen the fresh local directly
        // (its left side is `Type *p`, not a parseable lvalue).
        std::string D = declTarget(S.ExprB, AI, S.Holes);
        if (!D.empty()) {
          addTaint(D, M);
        } else {
          Lvalue L = parseLvalue(T, S.ExprB, AI);
          handleStore(L, M, T[AI].Line);
        }
      } else {
        // Statement-level calls (argument escapes handled inside).
        maskOfRange(S.ExprB, S.ExprE, S.Holes);
      }
    } else if (S.Kind == Stmt::If || S.Kind == Stmt::Loop ||
               S.Kind == Stmt::Switch) {
      if (S.HdrB < S.HdrE)
        maskOfRange(S.HdrB, S.HdrE, {});
    }
    for (const Stmt &K : S.Kids)
      walk(K);
  }

  void handleStore(const Lvalue &L, uint32_t Mask, int Line) {
    if (!L.Valid || !Mask)
      return;
    // Plain local (or parameter) scalar: gen/kill propagation, no sink.
    if (L.Chain.empty() && L.Derefs == 0 && Locals.count(L.Root)) {
      addTaint(L.Root, Mask);
      return;
    }
    // Storing INTO persistent memory is persistence, not an escape (and
    // pm-raw-store owns the raw-store diagnosis).
    if (!classifyPmStore(storeCtx(), L, /*ForMemWrite=*/false).empty())
      return;
    // Volatile field store (x.f / x->f / this->f): outlives the txn.
    if (!L.Chain.empty() && !L.Chain.back().Field.empty()) {
      escapeEvent(Mask, Line,
                  "volatile field '" + L.Chain.back().Field + "'");
      return;
    }
    // Out-parameter store (*out = p).
    if (L.Derefs > 0 && Taint.count(L.Root) && Locals.count(L.Root)) {
      bool IsParam = false;
      for (const std::string &P : F.Params)
        if (P == L.Root)
          IsParam = true;
      if (IsParam) {
        escapeEvent(Mask, Line, "out-parameter '*" + L.Root + "'");
        return;
      }
    }
    // Bare member store in a member function (`Cache = p;`).
    if (L.Chain.empty() && L.Derefs == 0 && !Locals.count(L.Root) &&
        !F.ClassName.empty()) {
      auto CI = Reg.ClassFields.find(F.ClassName);
      if (CI != Reg.ClassFields.end() && CI->second.count(L.Root) &&
          !Reg.PmFieldQual.count(F.ClassName + "::" + L.Root))
        escapeEvent(Mask, Line, "volatile member '" + L.Root + "'");
    }
  }
};

} // namespace

void Summaries::computeEscapes() {
  bool Changed = true;
  int Rounds = 0;
  while (Changed && Rounds++ < 5) {
    Changed = false;
    for (const FunctionInfo *F : Defs) {
      FuncSummary &S = Map[F];
      if (S.Trusted)
        continue;
      const FuncIR *IR = ir(F);
      if (!IR)
        continue;
      EscapeEngine E(*F, Reg, *this, &Map);
      E.run(IR->Tree, /*Diagnose=*/false);
      if ((E.EscapesParam | S.EscapesParam) != S.EscapesParam ||
          (E.ReturnsParam | S.ReturnsParam) != S.ReturnsParam ||
          (E.ReturnsPmAddr && !S.ReturnsPmAddr)) {
        S.EscapesParam |= E.EscapesParam;
        S.ReturnsParam |= E.ReturnsParam;
        S.ReturnsPmAddr |= E.ReturnsPmAddr;
        Changed = true;
      }
    }
  }
}

void diagnoseEscapes(const FunctionInfo &F, const Summaries &Sums,
                     const std::function<void(int, const std::string &)>
                         &Diag) {
  const FuncIR *IR = Sums.ir(&F);
  if (!IR)
    return;
  EscapeEngine E(F, Sums.registry(), Sums, nullptr);
  E.run(IR->Tree, /*Diagnose=*/true);
  for (auto &S : E.Sinks)
    Diag(S.first, S.second);
}

//===----------------------------------------------------------------------===//
// Transaction cone
//===----------------------------------------------------------------------===//

void Summaries::computeTxCone() {
  std::deque<const FunctionInfo *> Work;
  for (const FunctionInfo *F : Defs)
    if (effectiveAnn(*F).TxBody && TxCone.insert(F).second)
      Work.push_back(F);
  while (!Work.empty()) {
    const FunctionInfo *F = Work.front();
    Work.pop_front();
    const std::vector<Token> &T = F->Owner->Toks;
    for (const CallSite &CS :
         collectSites(T, F->BodyBegin, F->BodyEnd)) {
      if (CS.Kind != CallSite::Call)
        continue;
      Annotations Ann = Reg.lookupCall(
          !CS.ClassHint.empty() ? CS.ClassHint : F->ClassName, CS.Name);
      if (Ann.TxSafe || Ann.TxStoreApi || Ann.FlushApi || Ann.DrainApi)
        continue; // Trusted boundary, same as the htm-unsafe walk.
      for (const FunctionInfo *D : resolveCallees(F->ClassName, CS))
        if (TxCone.insert(D).second)
          Work.push_back(D);
    }
  }
}

//===----------------------------------------------------------------------===//
// Top-level driver
//===----------------------------------------------------------------------===//

void Summaries::compute(const std::vector<const ParsedFile *> &Files) {
  for (const ParsedFile *PF : Files)
    for (const FunctionInfo &F : PF->Funcs) {
      if (F.hasBody())
        Defs.push_back(&F);
      if (!F.CapacityToks.empty())
        CapacityByQual.emplace(F.QualName, &F);
    }
  // Deterministic order regardless of load order.
  std::sort(Defs.begin(), Defs.end(),
            [](const FunctionInfo *A, const FunctionInfo *B) {
              if (A->Owner->Path != B->Owner->Path)
                return A->Owner->Path < B->Owner->Path;
              return A->BodyBegin < B->BodyBegin;
            });
  for (const FunctionInfo *F : Defs) {
    auto IR = std::make_unique<FuncIR>();
    IR->Tree = parseStmtTree(F->Owner->Toks, F->BodyBegin, F->BodyEnd);
    IR->G = buildCfg(IR->Tree);
    IRs.emplace(F, std::move(IR));
    Annotations Ann = effectiveAnn(*F);
    FuncSummary S;
    S.Trusted = Ann.TxSafe || Ann.TxStoreApi || Ann.FlushApi || Ann.DrainApi;
    Map.emplace(F, S);
  }
  for (const FunctionInfo *F : Defs) {
    FuncSummary &S = Map[F];
    S.InlineBound = inlineBoundOf(F);
    S.MayTxStore = !S.InlineBound.isZero();
    if (std::getenv("CRAFTY_LINT_DEBUG_SUMMARIES") && S.MayTxStore)
      std::fprintf(stderr, "summary: %s inline=%s\n", F->QualName.c_str(),
                   S.InlineBound.str().c_str());
  }
  for (const FunctionInfo *F : Defs)
    Map[F].TxnBound = txnBoundOf(F);
  computeDrains();
  computeEscapes();
  computeTxCone();
}

} // namespace craftylint
