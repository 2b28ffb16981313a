//===- jitbench/src/Tracer.cpp - Per-layer tracing from outside the engine ===//

#include "Tracer.h"

#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "native/Fusion.h"
#include "vm/Interpreter.h"

#include <chrono>
#include <cstdio>

using namespace jitbench;

uint64_t jitbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *jitbench::spanKindName(SpanKind K) {
  switch (K) {
  case SpanKind::Op:
    return "op";
  case SpanKind::Load:
    return "parser.load";
  case SpanKind::Run:
    return "vm.run";
  case SpanKind::Request:
    return "serve.request";
  case SpanKind::OnCall:
    return "jit.oncall";
  case SpanKind::LoopHead:
    return "jit.loophead";
  case SpanKind::Replay:
    return "replay.compile";
  }
  return "?";
}

const char *const jitbench::PassNames[6] = {"inline", "gvn", "cp",
                                            "li",     "dce", "bce"};

Tracer::Tracer(size_t SpanCapacity) : SpanCapacity(SpanCapacity) {
  Spans.reserve(SpanCapacity);
}

Tracer::~Tracer() { detach(); }

void Tracer::attach(Runtime &R, Engine &E) {
  detach();
  RT = &R;
  Eng = &E;
  RT->setHooks(this);
  // A fresh fold heap per engine bounds the garbage replays leave. Same
  // setup as the engine's compile-worker fold heaps: nothing is rooted
  // there, so it must never collect; with the nursery off every fold
  // allocation stays put until the Runtime goes away.
  FoldRT = std::make_unique<Runtime>();
  FoldRT->heap().setGCThreshold(SIZE_MAX);
  FoldRT->heap().setNurseryEnabled(false);
}

void Tracer::detach() {
  if (RT && RT->hooks() == this)
    RT->setHooks(Eng);
  RT = nullptr;
  Eng = nullptr;
}

uint32_t Tracer::pushSpan(SpanKind K, uint64_t Start) {
  if (Spans.size() == SpanCapacity) {
    ++Dropped;
    return 0;
  }
  Span S;
  S.StartNs = Start;
  S.Kind = K;
  S.Op = CurOp;
  if (!Stack.empty())
    S.Parent = Stack.back().SpanIdx;
  Spans.push_back(S);
  return static_cast<uint32_t>(Spans.size());
}

void Tracer::beginSpan(SpanKind K) {
  Frame F;
  F.WrapperAtStart = Depth0WrapperNs;
  F.StartNs = nowNs();
  F.SpanIdx = pushSpan(K, F.StartNs);
  F.Kind = K;
  Stack.push_back(F);
}

void Tracer::endSpan() {
  uint64_t End = nowNs();
  Frame F = Stack.back();
  Stack.pop_back();
  if (F.SpanIdx)
    Spans[F.SpanIdx - 1].EndNs = End;
  if (F.Kind == SpanKind::Run || F.Kind == SpanKind::Request)
    InterpSelfNs += (End - F.StartNs) - (Depth0WrapperNs - F.WrapperAtStart);
}

void Tracer::addChildToTop(uint64_t Ns, uint64_t Compiles, uint64_t Spec,
                           double CompileS) {
  if (Stack.empty())
    return;
  Frame &P = Stack.back();
  P.ChildNs += Ns;
  P.ChildCompiles += Compiles;
  P.ChildSpec += Spec;
  P.ChildCompileS += CompileS;
}

const FeedbackMap &Tracer::enterCrossing(SpanKind K,
                                         const FunctionInfo *Info) {
  const EngineStats &S = Eng->stats();
  Frame F;
  F.Kind = K;
  F.CompilesAtStart = S.Compilations;
  F.SpecAtStart = S.SpecializedCompiles;
  F.CompileSAtStart = S.CompileSeconds;
  F.StartNs = nowNs();
  F.SpanIdx = pushSpan(K, F.StartNs);
  // The compiled function's feedback as the engine sees it on entry (a
  // bailout inside the crossing updates it before any replay could
  // read it). The copy lies inside the span but outside its self time.
  if (SavedFeedback.size() <= CrossDepth)
    SavedFeedback.push_back(std::make_unique<FeedbackMap>());
  FeedbackMap &Saved = *SavedFeedback[CrossDepth];
  Saved = Info->Feedback;
  F.ChildNs = nowNs() - F.StartNs;
  Stack.push_back(F);
  ++CrossDepth;
  return Saved;
}

Tracer::Crossing Tracer::leaveCrossing() {
  Crossing C;
  C.EndNs = nowNs();
  const EngineStats &S = Eng->stats();
  Frame F = Stack.back();
  Stack.pop_back();
  --CrossDepth;
  if (F.SpanIdx)
    Spans[F.SpanIdx - 1].EndNs = C.EndNs;

  C.StartNs = F.StartNs;
  uint64_t Dur = C.EndNs - F.StartNs;
  uint64_t Compiles = S.Compilations - F.CompilesAtStart;
  uint64_t Spec = S.SpecializedCompiles - F.SpecAtStart;
  double CompileS = S.CompileSeconds - F.CompileSAtStart;
  C.SelfCompiles = Compiles - F.ChildCompiles;
  C.SelfSpec = Spec - F.ChildSpec;

  double SelfS = static_cast<double>(Dur - F.ChildNs) * 1e-9;
  Cross.CrossSelfS += SelfS;
  if (F.Kind == SpanKind::OnCall)
    Cross.OnCallSelfS += SelfS;
  Cross.CompileS += CompileS - F.ChildCompileS;
  addChildToTop(Dur, Compiles, Spec, CompileS);
  return C;
}

void Tracer::finishCrossing(const Crossing &C, bool Replayed) {
  if (CrossDepth == 0)
    Depth0WrapperNs += (Replayed ? nowNs() : C.EndNs) - C.StartNs;
}

bool Tracer::onCall(JSFunction *Callee, const Value &ThisV, const Value *Args,
                    size_t NumArgs, Value &Result) {
  FunctionInfo *Info = Callee->info();
  const FeedbackMap &Before = enterCrossing(SpanKind::OnCall, Info);
  bool Handled = Eng->onCall(Callee, ThisV, Args, NumArgs, Result);
  Crossing C = leaveCrossing();
  ++Cross.OnCallN;
  Cross.OnCallHandled += Handled;
  // The arguments array belongs to the caller and is GC-rooted by
  // Runtime::callValue, so after the crossing it still holds the values
  // the engine compiled against.
  if (C.SelfCompiles == 1)
    replayCompile(Info, Before, C.SelfSpec ? Args : nullptr, NumArgs,
                  nullptr, nullptr);
  else
    Rep.Unattributed += C.SelfCompiles;
  finishCrossing(C, C.SelfCompiles == 1);
  return Handled;
}

bool Tracer::onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) {
  const FeedbackMap &Before = enterCrossing(SpanKind::LoopHead, Frame.Info);
  bool Handled = Eng->onLoopHead(Frame, PC, Result);
  Crossing C = leaveCrossing();
  ++Cross.LoopHeadN;
  Cross.LoopHeadHandled += Handled;
  // The engine hands native code a copy of Frame.Slots and resumes
  // bailouts in a new frame, so this frame still holds the entry values
  // (kept current by the frame's own GC rooting).
  if (C.SelfCompiles == 1)
    replayCompile(Frame.Info, Before,
                  C.SelfSpec ? Frame.OrigArgs.data() : nullptr,
                  Frame.OrigArgs.size(), &PC,
                  C.SelfSpec ? &Frame.Slots : nullptr);
  else
    Rep.Unattributed += C.SelfCompiles;
  finishCrossing(C, C.SelfCompiles == 1);
  return Handled;
}

namespace {

double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

} // namespace

void Tracer::replayCompile(FunctionInfo *Info, const FeedbackMap &Before,
                           const Value *Args, size_t NumArgs,
                           const uint32_t *OsrPc,
                           const std::vector<Value> *OsrSlots) {
  uint64_t Start = nowNs();
  uint32_t SpanIdx = pushSpan(SpanKind::Replay, Start);
  const OptConfig &Cfg = Eng->config();

  // The same inputs Engine::compile receives under the paper policy:
  // every parameter (and, at an OSR entry, every frame slot) at the
  // value tier, or nothing at all for a generic body.
  BuildOptions Opts;
  if (Args) {
    Opts.SpecializedArgs = std::vector<Value>(Args, Args + NumArgs);
    Opts.ParamTiers.assign(NumArgs, ParamTier::Value);
  }
  if (OsrPc) {
    Opts.OsrPc = *OsrPc;
    if (OsrSlots) {
      Opts.OsrSlotValues = *OsrSlots;
      Opts.OsrSlotTiers.assign(OsrSlots->size(), ParamTier::Value);
    }
  }

  // \p Info's feedback from the start of the crossing; other functions
  // (read only by the inliner) contribute their current feedback.
  FeedbackSnapshot Feedback;
  Feedback.add(Info, Before);
  if (Program *P = Info->Parent)
    for (size_t I = 0; I != P->numFunctions(); ++I)
      if (FunctionInfo *F = P->function(static_cast<uint32_t>(I)); F != Info)
        Feedback.add(F, F->Feedback);
  Opts.Feedback = &Feedback;

  uint64_t T = nowNs();
  std::unique_ptr<MIRGraph> G = buildMIR(Info, Opts);
  Rep.BuildS += secondsSince(T);
  Rep.MirNodes += G->numInstructions();

  auto RunPass = [&](PassId P, auto &&Fn) {
    uint64_t PT = nowNs();
    Fn();
    Rep.PassS[P] += secondsSince(PT);
    Rep.PassNodesAfter[P] += G->numInstructions();
  };
  if (Cfg.ParameterSpecialization)
    RunPass(PassInline, [&] {
      Rep.InlinedSites += runClosureInlining(*G, *FoldRT, Cfg);
    });
  if (Cfg.GlobalValueNumbering)
    RunPass(PassGVN, [&] { runGVN(*G); });
  if (Cfg.ConstantPropagation)
    RunPass(PassCP, [&] { runConstantPropagation(*G, *FoldRT); });
  if (Cfg.LoopInversion)
    RunPass(PassLI, [&] { runLoopInversion(*G); });
  if (Cfg.DeadCodeElim)
    RunPass(PassDCE, [&] { runDeadCodeElimination(*G, *FoldRT); });
  if (Cfg.BoundsCheckElim)
    RunPass(PassBCE, [&] {
      runBoundsCheckElimination(*G, Cfg.RelaxedBCEAliasing);
    });

  CodegenStats CS;
  T = nowNs();
  std::unique_ptr<NativeCode> Code = generateCode(*G, &CS);
  Rep.CodegenS += secondsSince(T);
  Rep.Instrs += Code->sizeInInstructions();
  Rep.Spills += CS.NumSpills;
  Rep.VRegs += CS.NumVirtualRegs;

  if (Eng->fusionEnabled()) {
    T = nowNs();
    Rep.FusedPairs += fuseMacroOps(*Code);
    Rep.FusionS += secondsSince(T);
  }
  Rep.InstrsPostFusion += Code->sizeInInstructionsPostFusion();
  ++Rep.Compiles;

  auto [It, New] = ReplayMin.emplace(Info->Name, Code->sizeInInstructions());
  if (!New)
    It->second = std::min(It->second, Code->sizeInInstructions());
  FoldRT->clearError();

  uint64_t End = nowNs();
  if (SpanIdx)
    Spans[SpanIdx - 1].EndNs = End;
  // A child of the enclosing span: replay time is never engine or
  // interpreter self time.
  addChildToTop(End - Start, 0, 0, 0);
}

bool Tracer::writeSpans(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "id,parent,op,name,start_ns,end_ns\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out, "%zu,%u,%u,%s,%llu,%llu\n", I + 1, S.Parent, S.Op,
                 spanKindName(S.Kind),
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs));
  }
  return std::fclose(Out) == 0;
}
