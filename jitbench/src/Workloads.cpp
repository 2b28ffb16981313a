//===- jitbench/src/Workloads.cpp - The benchmark's three workloads -------===//

#include "Workloads.h"

#include "Tracer.h"

#include "fuzz/ProgramGen.h"
#include "jit/CodeCache.h"
#include "serve/ServeHarness.h"
#include "serve/SessionWorkload.h"
#include "support/Stats.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <sched.h>
#include <sys/resource.h>

using namespace jitbench;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Set-up runs at least this many times, and until this long has passed,
/// in an untraced run; setup_s is the median.
constexpr int SetupReps = 3;
constexpr double SetupMinSeconds = 1.0;

/// Span buffer size of the traced pass whose spans are written out (32
/// bytes each). The largest pass, `serve`, records about 0.8M spans.
constexpr size_t SpanCapacity = 2u << 20;
/// Later traced passes keep only this many: their spans are not written,
/// and past the capacity a span costs the same, minus the store.
constexpr size_t OverheadSpanCapacity = 1u << 16;

/// Independent sub-seeds of the run's seed, one per input stream.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  RNG R(Seed * 0x9e3779b97f4a7c15ull + Stream);
  return R.next();
}

double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// Bytes the C++ heap has handed out and not taken back (glibc). Unlike
/// the resident set it does not depend on what earlier ops left behind,
/// so it repeats exactly for the same inputs.
double heapInUseBytes() {
  struct mallinfo2 M = mallinfo2();
  return static_cast<double>(M.uordblks + M.hblkhd);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

constexpr double MiB = 1024.0 * 1024.0;

/// The Figure 10 count: the smallest body emitted per compiled function.
uint64_t fig10Instrs(const Engine &E) {
  uint64_t N = 0;
  for (const Engine::FunctionReport &R : E.functionReports())
    if (R.Compiles)
      N += R.MinCodeSize;
  return N;
}

/// Every engine runs synchronously with the paper policy; only the code
/// cache budget differs between workloads.
EngineKnobs knobs(size_t CodeCacheBytes) {
  EngineKnobs K;
  K.CompileThreads = 0;
  K.CodeCacheBytes = CodeCacheBytes;
  return K;
}

/// The benchmark host is shared, and interference from other tenants
/// slows the engine by up to 1.6x, in phases of seconds to minutes that
/// differ between virtual CPUs at the same moment (measured: a run-wide
/// median swings between the two speeds from one run to the next). Each
/// timing is therefore the best of many repetitions of identical work,
/// taken across all CPUs (rotateCpu): it tracks what the code costs, not
/// the interference a run happened to meet.
double best(const std::vector<double> &Xs) {
  return Xs.empty() ? 0 : *std::min_element(Xs.begin(), Xs.end());
}

/// Reports ops_per_s, op_p50_us and op_p99_us from the best time of
/// every op of one pass over the workload's distinct ops.
void addOpMetrics(Result &R, std::vector<double> OpS, const char *What) {
  double PassS = 0;
  for (double S : OpS)
    PassS += S;
  std::sort(OpS.begin(), OpS.end());
  R.Metrics.push_back({"ops_per_s", ratio(OpS.size(), PassS), "1/s"});
  R.Metrics.push_back({"op_p50_us", percentileSorted(OpS, 50.0) * 1e6, "us"});
  R.Metrics.push_back({"op_p99_us", percentileSorted(OpS, 99.0) * 1e6, "us"});
  R.Detail.push_back({"op", std::string("\"") + What + "\""});
  R.Detail.push_back({"op_samples", std::to_string(OpS.size())});
}

/// Moves the (single-threaded) benchmark to the next CPU it may use.
/// Called before every round: host interference differs from one virtual
/// CPU to the next at the same moment, so rotating lets a run sample all
/// of them instead of being stuck on whichever it started on.
void rotateCpu() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Allowed;
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Allowed))
          Out.push_back(C);
    return Out;
  }();
  static size_t Next = 0;
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

//===----------------------------------------------------------------------===//
// Per-layer accounting shared by the traced passes
//===----------------------------------------------------------------------===//

void addStats(EngineStats &To, const EngineStats &From) {
  To.Compilations += From.Compilations;
  To.Recompilations += From.Recompilations;
  To.SpecializedCompiles += From.SpecializedCompiles;
  To.GenericCompiles += From.GenericCompiles;
  To.Despecializations += From.Despecializations;
  To.CacheHits += From.CacheHits;
  To.ValueTierHits += From.ValueTierHits;
  To.Bailouts += From.Bailouts;
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    To.BailoutsByReason[I] += From.BailoutsByReason[I];
  To.OsrEntries += From.OsrEntries;
  To.CompileSeconds += From.CompileSeconds;
}

/// Everything a traced pass reads from the engine, heap, inline caches
/// and code cache at the end of each engine's life.
struct Layers {
  double LoadS = 0;
  uint64_t SourceBytes = 0;
  uint64_t MinorGC = 0, MajorGC = 0, Promoted = 0;
  uint64_t ICHits = 0, ICLookups = 0, ICMegamorphic = 0;
  EngineStats Eng;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheEvictions = 0;
  uint64_t CacheResidentBytes = 0;
  uint64_t ReplayMismatches = 0;
  std::vector<std::string> MismatchNotes;

  /// Folds one finished engine (and its Runtime) into the totals and
  /// cross-checks the tracer's replayed sizes against the engine's own
  /// per-function minimum.
  void collect(Runtime &RT, const Engine &E, Tracer &T) {
    Heap &H = RT.heap();
    MinorGC += H.minorCount();
    MajorGC += H.gcCount();
    Promoted += H.promotedCount();
    const Runtime::ICStats &IC = RT.icStats();
    ICHits += IC.GetHits + IC.SetHits + IC.CallHits;
    ICLookups += IC.GetHits + IC.SetHits + IC.CallHits + IC.GetMisses +
                 IC.SetMisses + IC.CallMisses;
    ICMegamorphic += IC.MegamorphicSites;
    addStats(Eng, E.stats());
    if (const CodeCache *C = E.codeCache()) {
      CacheHits += C->stats().Hits;
      CacheMisses += C->stats().Misses;
      CacheEvictions += C->stats().Evictions;
      CacheResidentBytes += C->residentBytes();
    }

    std::map<std::string, size_t> EngineMin;
    for (const Engine::FunctionReport &R : E.functionReports()) {
      if (!R.Compiles)
        continue;
      auto [It, New] = EngineMin.emplace(R.Name, R.MinCodeSize);
      if (!New)
        It->second = std::min(It->second, R.MinCodeSize);
    }
    const std::map<std::string, size_t> &ReplayMin = T.replayMinSize();
    for (const auto &[Name, Size] : EngineMin) {
      auto It = ReplayMin.find(Name);
      size_t Got = It == ReplayMin.end() ? 0 : It->second;
      if (Got != Size) {
        ++ReplayMismatches;
        if (MismatchNotes.size() < 8)
          MismatchNotes.push_back(Name + ": engine " + std::to_string(Size) +
                                  ", replay " + std::to_string(Got));
      }
    }
    T.clearReplayMin();
  }

  void addMetrics(std::vector<Metric> &M, const Tracer &T) const {
    auto Count = [&M](const std::string &N, double V) {
      M.push_back({N, V, "count"});
    };
    auto Secs = [&M](const std::string &N, double V) {
      M.push_back({N, V, "s"});
    };
    auto Ratio = [&M](const std::string &N, double V) {
      M.push_back({N, V, "ratio"});
    };
    const CrossingTotals &C = T.crossings();
    const ReplayTotals &R = T.replay();

    Secs("parser.load_s", LoadS);
    Count("parser.source_bytes", SourceBytes);
    Secs("vm.interp_self_s", T.interpSelfS());
    Count("vm.calls_interpreted", C.OnCallN - C.OnCallHandled);
    Count("gc.minor_n", MinorGC);
    Count("gc.major_n", MajorGC);
    Count("gc.promoted_n", Promoted);
    Ratio("ic.hit_ratio", ratio(ICHits, ICLookups));
    Count("ic.lookups", ICLookups);
    Count("ic.megamorphic_sites", ICMegamorphic);

    Count("jit.oncall_n", C.OnCallN);
    Secs("jit.oncall_s", C.OnCallSelfS);
    Ratio("jit.native_ratio", ratio(C.OnCallHandled, C.OnCallN));
    Count("jit.loophead_n", C.LoopHeadN);
    Ratio("jit.osr_ratio", ratio(C.LoopHeadHandled, C.LoopHeadN));
    Secs("jit.compile_s", C.CompileS);
    Secs("jit.exec_s", C.CrossSelfS - C.CompileS);
    Count("jit.compiles", Eng.Compilations);
    Count("jit.recompiles", Eng.Recompilations);
    Count("jit.spec_compiles", Eng.SpecializedCompiles);
    Count("jit.generic_compiles", Eng.GenericCompiles);
    Count("jit.despecializations", Eng.Despecializations);
    Count("jit.spec_hits", Eng.CacheHits);
    Count("jit.value_tier_hits", Eng.ValueTierHits);
    Count("jit.osr_entries", Eng.OsrEntries);
    Count("jit.bailouts", Eng.Bailouts);
    for (size_t I = 0; I != NumBailoutReasons; ++I)
      Count(std::string("jit.bailouts.") +
                bailoutReasonName(static_cast<BailoutReason>(I)),
            Eng.BailoutsByReason[I]);

    Ratio("cache.hit_ratio", ratio(CacheHits, CacheHits + CacheMisses));
    Count("cache.lookups", CacheHits + CacheMisses);
    Count("cache.misses", CacheMisses);
    Count("cache.evictions", CacheEvictions);
    M.push_back({"cache.resident_kb", CacheResidentBytes / 1024.0, "kB"});

    Secs("mir.build_s", R.BuildS);
    Count("mir.nodes", R.MirNodes);
    for (int P = 0; P != 6; ++P) {
      Secs(std::string("passes.") + PassNames[P] + "_s", R.PassS[P]);
      Count(std::string("passes.") + PassNames[P] + "_nodes_after",
            R.PassNodesAfter[P]);
    }
    Count("passes.inlined_sites", R.InlinedSites);
    Secs("lir.codegen_s", R.CodegenS);
    Count("lir.instrs", R.Instrs);
    Count("lir.spills", R.Spills);
    Count("lir.vregs", R.VRegs);
    Secs("native.fusion_s", R.FusionS);
    Count("native.fused_pairs", R.FusedPairs);
    Count("native.instrs_post_fusion", R.InstrsPostFusion);
    Count("replay.compiles", R.Compiles);
    Count("replay.mismatches", ReplayMismatches + R.Unattributed);
  }
};

/// A traced pass's metrics plus what the self-check and overhead need.
struct TracedPass {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> MismatchNotes;
};

/// Writes the first traced pass's spans where the run was asked to.
void writeSpans(const Tracer &T, const Options &O, Result &R) {
  if (!O.SpansOut.empty() && !T.writeSpans(O.SpansOut))
    std::fprintf(stderr, "jitbench: cannot write %s\n", O.SpansOut.c_str());
  R.Detail.push_back({"spans", std::to_string(T.spans().size())});
  R.Detail.push_back({"spans_dropped", std::to_string(T.spansDropped())});
}

/// Names of metrics that must repeat exactly between two traced passes
/// over the same inputs: every metric that is not a time.
bool isExactMetric(const Metric &M) { return M.Unit != "s"; }

/// Tracing overhead: pairs of one untraced and one traced round, both on
/// the same CPU, until \p Seconds pass. \p Round(Traced) runs one round
/// and returns its op count.
struct Overhead {
  double UntracedOpsPerS = 0, TracedOpsPerS = 0;
  /// Median over pairs of traced over untraced ops per second.
  double Ratio = 0;
};
template <typename Fn> Overhead measureOverhead(double Seconds, Fn &&Round) {
  std::vector<double> Ratios;
  double Secs[2] = {0, 0};
  uint64_t Ops[2] = {0, 0};
  uint64_t Start = nowNs();
  do {
    rotateCpu();
    double Rate[2];
    for (int Traced = 0; Traced != 2; ++Traced) {
      uint64_t RoundStart = nowNs();
      uint64_t N = Round(Traced == 1);
      double S = secondsSince(RoundStart);
      Secs[Traced] += S;
      Ops[Traced] += N;
      Rate[Traced] = ratio(N, S);
    }
    Ratios.push_back(ratio(Rate[1], Rate[0]));
  } while (secondsSince(Start) < Seconds);
  return {ratio(Ops[0], Secs[0]), ratio(Ops[1], Secs[1]), median(Ratios)};
}

/// Fills the traced-run result from passes A and B (same inputs, fresh
/// engines) and the overhead measurement.
void finishTraced(Result &R, const TracedPass &A, const TracedPass &B,
                  const Overhead &Cost) {
  R.Metrics = A.Metrics;
  uint64_t Mismatches = 0;
  std::string Names;
  for (size_t I = 0; I != A.Metrics.size(); ++I) {
    if (!isExactMetric(A.Metrics[I]) ||
        A.Metrics[I].Value == B.Metrics[I].Value)
      continue;
    ++Mismatches;
    if (Names.size() < 400)
      Names += (Names.empty() ? "\"" : ", \"") + A.Metrics[I].Name + "\"";
  }
  R.Metrics.push_back({"selfcheck.count_mismatches",
                       static_cast<double>(Mismatches), "count"});
  R.Metrics.push_back({"trace.overhead_ratio", Cost.Ratio, "ratio"});
  R.Metrics.push_back(
      {"trace.ops_per_s_traced", Cost.TracedOpsPerS, "1/s"});
  R.Metrics.push_back(
      {"trace.ops_per_s_untraced", Cost.UntracedOpsPerS, "1/s"});
  R.Detail.push_back({"selfcheck_mismatched", "[" + Names + "]"});
  std::string Notes;
  for (const std::string &N : A.MismatchNotes)
    Notes += (Notes.empty() ? "\"" : ", \"") + N + "\"";
  R.Detail.push_back({"replay_mismatch_examples", "[" + Notes + "]"});
  R.Attempted += A.Attempted + B.Attempted;
  R.Failed += A.Failed + B.Failed;
}

//===----------------------------------------------------------------------===//
// Script workloads: suites and compile-churn
//===----------------------------------------------------------------------===//

struct Script {
  std::string Name;
  std::string Source;
  std::string RefOutput;
  std::string RefError;
  bool RefHadError = false;
};

/// Counts a reference run's work (loop iterations plus calls) through
/// the interpreter's hooks, declining every one so the run stays purely
/// interpreted, and stops the run once the work passes \p Cap.
class WorkMeter final : public ExecutionHooks {
public:
  WorkMeter(Runtime &RT, uint64_t Cap) : RT(RT), Cap(Cap) {
    RT.setHooks(this);
  }
  ~WorkMeter() override { RT.setHooks(nullptr); }
  WorkMeter(const WorkMeter &) = delete;
  WorkMeter &operator=(const WorkMeter &) = delete;

  bool onCall(JSFunction *, const Value &, const Value *, size_t,
              Value &) override {
    tick();
    return false;
  }
  bool onLoopHead(InterpFrame &, uint32_t, Value &) override {
    tick();
    return false;
  }
  bool overCap() const { return Work > Cap; }

private:
  void tick() {
    if (++Work > Cap && !RT.hasError())
      RT.fail("reference run exceeded the work cap");
  }
  Runtime &RT;
  uint64_t Cap;
  uint64_t Work = 0;
};

/// Interpreter-only run: the program's reference observables. \returns
/// false when the run did more than \p WorkCap loop iterations plus calls
/// (it is then stopped, and \p P has no reference).
bool referenceRun(Script &P, uint64_t WorkCap = UINT64_MAX) {
  Runtime RT;
  WorkMeter Meter(RT, WorkCap);
  RT.evaluate(P.Source);
  P.RefOutput = RT.output();
  P.RefHadError = RT.hasError();
  P.RefError = RT.errorMessage();
  return !Meter.overCap();
}

bool sameObservable(const Runtime &RT, const Script &P) {
  return RT.hasError() == P.RefHadError && RT.errorMessage() == P.RefError &&
         RT.output() == P.RefOutput;
}

std::vector<Script> suitesInputs(uint64_t) {
  std::vector<Script> Ps;
  for (const Workload &W : allWorkloads()) {
    Script P;
    P.Name = W.Name;
    P.Source = W.Source;
    referenceRun(P);
    Ps.push_back(std::move(P));
  }
  return Ps;
}

/// Programs per compile-churn pass. Large enough that the pass's totals
/// (compiles, code size, time) vary little from one seed to the next.
constexpr unsigned ChurnPrograms = 400;
/// Generated programs whose reference run exceeds this many loop
/// iterations plus calls (about 1 in 5) are replaced by the next seed;
/// their reference run is stopped there, so set-up stays short. Their
/// run times reach 100x the median, so a few of them would decide a
/// pass's time and p99 and make both depend on the seed (simulated over
/// 2,000 programs, spread across seeds of mean and p99 program time:
/// 4 % and 13 % uncapped at 95 % kept, 3 % and 5 % at this cap); and a
/// program that long is an execution workload, which `suites` covers.
constexpr uint64_t ChurnWorkCap = 20000;

std::vector<Script> churnInputs(uint64_t Seed, unsigned &Replaced) {
  std::vector<Script> Ps;
  Replaced = 0;
  RNG Seeds(deriveSeed(Seed, 1));
  while (Ps.size() != ChurnPrograms) {
    uint64_t S = Seeds.next();
    Script P;
    P.Name = "fuzz-" + std::to_string(S);
    P.Source = fuzz::generateProgram(S).render();
    if (!referenceRun(P, ChurnWorkCap)) {
      ++Replaced;
      continue;
    }
    Ps.push_back(std::move(P));
  }
  return Ps;
}

struct ScriptOp {
  double Seconds = 0;
  /// Heap the op's Runtime and Engine hold at its end, before teardown.
  double HeapBytes = 0;
  bool Ok = false;
  double CompileS = 0;
  uint64_t CodeInstrs = 0;
};

/// One op: the program evaluated from source in a fresh Runtime + Engine
/// (the Figure 9 protocol). Traced, the parse and the top-level run get
/// their own spans and the finished engine is folded into \p L.
ScriptOp runProgram(const Script &P, Tracer *T = nullptr,
                     Layers *L = nullptr, uint32_t OpId = 0) {
  ScriptOp Out;
  double HeapBase = heapInUseBytes();
  Runtime RT;
  Engine E(RT, OptConfig::all(), knobs(0));
  if (!T) {
    uint64_t Start = nowNs();
    RT.evaluate(P.Source);
    Out.Seconds = secondsSince(Start);
  } else {
    T->attach(RT, E);
    T->setOp(OpId);
    uint64_t Start = nowNs();
    T->beginSpan(SpanKind::Op);
    T->beginSpan(SpanKind::Load);
    uint64_t LoadStart = nowNs();
    bool Loaded = RT.load(P.Source);
    L->LoadS += secondsSince(LoadStart);
    T->endSpan();
    L->SourceBytes += P.Source.size();
    if (Loaded) {
      T->beginSpan(SpanKind::Run);
      RT.run();
      T->endSpan();
    }
    T->endSpan();
    Out.Seconds = secondsSince(Start);
    T->detach();
    L->collect(RT, E, *T);
  }
  Out.Ok = sameObservable(RT, P);
  Out.CompileS = E.stats().CompileSeconds;
  Out.CodeInstrs = fig10Instrs(E);
  Out.HeapBytes = heapInUseBytes() - HeapBase;
  return Out;
}

void measurePrograms(const std::vector<Script> &Ps, const Options &O,
                     Result &R) {
  std::string FailedNames;
  auto Check = [&](const Script &P, const ScriptOp &Op) {
    ++R.Attempted;
    if (Op.Ok)
      return;
    if (R.Failed++ < 8)
      FailedNames += (FailedNames.empty() ? "\"" : ", \"") + P.Name + "\"";
  };
  // An untimed first pass settles the process (allocator, caches). It
  // also gives the pass's code size, which repeats exactly on every pass.
  uint64_t CodeInstrs = 0;
  std::vector<double> HeapBytes;
  for (const Script &P : Ps) {
    ScriptOp Op = runProgram(P);
    Check(P, Op);
    CodeInstrs += Op.CodeInstrs;
    HeapBytes.push_back(Op.HeapBytes);
  }

  // Passes over every program until the time is up, each pass on the
  // next CPU. Every program's time is its best run: per-op granularity
  // (milliseconds) finds quiet moments that whole passes, a second
  // long, would average away.
  std::vector<std::vector<double>> Runs(Ps.size()), CompileRuns(Ps.size());
  uint64_t Start = nowNs();
  do {
    rotateCpu();
    for (size_t I = 0; I != Ps.size(); ++I) {
      ScriptOp Op = runProgram(Ps[I]);
      Check(Ps[I], Op);
      Runs[I].push_back(Op.Seconds);
      CompileRuns[I].push_back(Op.CompileS);
    }
  } while (secondsSince(Start) < O.Seconds);

  std::vector<double> OpS;
  double PassS = 0, PassCompileS = 0;
  for (size_t I = 0; I != Ps.size(); ++I) {
    OpS.push_back(best(Runs[I]));
    PassS += OpS.back();
    PassCompileS += best(CompileRuns[I]);
  }
  // Every op starts from a cold engine, so one pass is also this
  // workload's warm-up: cold engines to every program's result.
  R.Metrics.push_back({"warmup_s", PassS, "s"});
  addOpMetrics(R, OpS, "one program run in a fresh engine");
  R.Metrics.push_back(
      {"compile_us_per_op", PassCompileS / Ps.size() * 1e6, "us"});
  R.Detail.push_back({"runs_per_op", std::to_string(Runs[0].size())});
  R.Metrics.push_back(
      {"code_instrs", static_cast<double>(CodeInstrs), "count"});
  R.Metrics.push_back({"live_heap_mb", median(HeapBytes) / MiB, "MB"});
  R.Detail.push_back({"programs", std::to_string(Ps.size())});
  R.Detail.push_back({"failed_programs", "[" + FailedNames + "]"});
}

TracedPass tracedProgramPass(const std::vector<Script> &Ps, Tracer &T) {
  TracedPass Pass;
  Layers L;
  for (uint32_t I = 0; I != Ps.size(); ++I) {
    ScriptOp Op = runProgram(Ps[I], &T, &L, I);
    ++Pass.Attempted;
    Pass.Failed += !Op.Ok;
  }
  L.addMetrics(Pass.Metrics, T);
  Pass.MismatchNotes = L.MismatchNotes;
  return Pass;
}

void traceProgramsRun(const std::vector<Script> &Ps, const Options &O,
                      Result &R) {
  TracedPass A, B;
  {
    Tracer TA(SpanCapacity);
    A = tracedProgramPass(Ps, TA);
    writeSpans(TA, O, R);
  }
  {
    Tracer TB(OverheadSpanCapacity);
    B = tracedProgramPass(Ps, TB);
  }

  Tracer T(OverheadSpanCapacity);
  Layers Scratch;
  Overhead Cost = measureOverhead(O.Seconds, [&](bool Traced) {
    for (const Script &P : Ps)
      runProgram(P, Traced ? &T : nullptr, &Scratch);
    return Ps.size();
  });
  finishTraced(R, A, B, Cost);
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// Warm-up sessions before the steady state (by then it compiles nothing).
constexpr unsigned ServeWarmupSessions = 2000;
/// Distinct steady-state sessions; the steady loop cycles through them.
constexpr unsigned ServeSteadySessions = 2048;
/// Steady-state sessions of one traced pass.
constexpr unsigned ServeTracedSessions = 1000;
/// Live sessions in the round-robin window.
constexpr unsigned ServeWindow = 64;
/// Warm-up samples per untraced run, each on a fresh engine.
constexpr int ServeWarmups = 32;
/// Requests per steady-state round (one CPU): two passes over the steady
/// sessions.
constexpr uint64_t ServeRoundRequests =
    2 * ServeSteadySessions * ServeModel{}.RequestsPerSession;
/// The `paper-cache` column of jitvs_serve.
constexpr size_t ServeCacheBytes = 1u << 20;

struct ServeInputs {
  ServeModel Model;
  SiteBundle Site;
  /// Call streams of sessions [0, Warmup) then [Warmup, Warmup + Steady).
  std::vector<std::vector<CallEvent>> Sessions;
  /// Reference checksum of every (session, request).
  std::vector<uint64_t> Ref;

  uint64_t &ref(uint32_t Session, unsigned Req) {
    return Ref[static_cast<size_t>(Session) * Model.RequestsPerSession + Req];
  }
};

/// One Runtime with the site bundle loaded, with or without an engine.
/// Request results are kept in a GC-rooted buffer so they can be folded
/// into the checksum after the request's timer stops.
struct ServeEngine {
  Runtime RT;
  std::unique_ptr<Engine> E;
  std::vector<Value> Results;
  TempRoots Roots;
  uint32_t DriveSlot = 0;

  ServeEngine(bool Jit, unsigned CallsPerRequest)
      : Results(CallsPerRequest), Roots(RT.heap()) {
    if (Jit)
      E = std::make_unique<Engine>(RT, OptConfig::all(),
                                   knobs(ServeCacheBytes));
    Roots.addVector(Results);
  }

  bool load(const std::string &Source, Tracer *T = nullptr,
            Layers *L = nullptr) {
    if (T) {
      T->beginSpan(SpanKind::Op);
      T->beginSpan(SpanKind::Load);
      uint64_t Start = nowNs();
      bool Ok = RT.load(Source);
      L->LoadS += secondsSince(Start);
      L->SourceBytes += Source.size();
      T->endSpan();
      if (Ok) {
        T->beginSpan(SpanKind::Run);
        RT.run();
        T->endSpan();
      }
      T->endSpan();
    } else {
      RT.evaluate(Source);
    }
    DriveSlot = RT.program() ? RT.program()->globalSlot("drive") : 0;
    return !RT.hasError() && RT.program() &&
           RT.global(DriveSlot).isFunction();
  }
};

/// FNV-1a over the printed form of every result of one request.
uint64_t checksum(const std::vector<Value> &Results) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Value &V : Results) {
    for (char C : V.toDisplayString() + "\n") {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001b3ull;
    }
  }
  return H;
}

/// The closed-loop client: a window of live sessions served round-robin,
/// one request per turn, a finished session replaced by the next one.
class SessionWindow {
public:
  /// Sessions are admitted in order \p IdOf(0), \p IdOf(1), ... up to
  /// \p Limit of them.
  SessionWindow(unsigned Width, unsigned RequestsPerSession,
                std::function<uint32_t(uint64_t)> IdOf, uint64_t Limit)
      : RequestsPerSession(RequestsPerSession), IdOf(std::move(IdOf)),
        Limit(Limit) {
    for (unsigned I = 0; I != Width && Admitted != Limit; ++I)
      Slots.push_back({this->IdOf(Admitted++), 0, true});
  }

  /// The next request to serve, or false once every session finished.
  bool next(uint32_t &Session, unsigned &Req) {
    for (size_t Tries = 0; Tries != Slots.size(); ++Tries) {
      Slot &S = Slots[Cursor];
      Cursor = (Cursor + 1) % Slots.size();
      if (!S.Live)
        continue;
      Session = S.Session;
      Req = S.NextReq++;
      if (S.NextReq == RequestsPerSession) {
        if (Admitted != Limit)
          S = {IdOf(Admitted++), 0, true};
        else
          S.Live = false;
      }
      return true;
    }
    return false;
  }

private:
  struct Slot {
    uint32_t Session;
    unsigned NextReq;
    bool Live;
  };
  unsigned RequestsPerSession;
  std::function<uint32_t(uint64_t)> IdOf;
  uint64_t Limit;
  uint64_t Admitted = 0;
  std::vector<Slot> Slots;
  size_t Cursor = 0;
};

/// Serves one request (CallsPerRequest `drive` calls). \returns its
/// checksum; \p Error is set when any call raised a runtime error.
uint64_t serveRequest(ServeEngine &SE, const ServeInputs &In, uint32_t Session,
                      unsigned Req, double &Seconds, bool &Error) {
  const unsigned Calls = In.Model.CallsPerRequest;
  const CallEvent *Ev = &In.Sessions[Session][Req * Calls];
  Value Args[2];
  Error = false;
  uint64_t Start = nowNs();
  for (unsigned C = 0; C != Calls; ++C) {
    Args[0] = Value::int32(static_cast<int32_t>(Ev[C].Func));
    Args[1] = Value::int32(static_cast<int32_t>(Ev[C].Arg));
    SE.Results[C] = SE.RT.callValue(SE.RT.global(SE.DriveSlot),
                                    Value::undefined(), Args, 2);
    if (SE.RT.hasError()) {
      Error = true;
      SE.RT.clearError();
    }
  }
  Seconds = secondsSince(Start);
  return checksum(SE.Results);
}

SessionWindow warmupWindow(const ServeInputs &In) {
  return SessionWindow(ServeWindow, In.Model.RequestsPerSession,
                       [](uint64_t K) { return static_cast<uint32_t>(K); },
                       ServeWarmupSessions);
}

/// Steady-state sessions, cycling through the distinct steady set.
SessionWindow steadyWindow(const ServeInputs &In, uint64_t Limit) {
  return SessionWindow(ServeWindow, In.Model.RequestsPerSession,
                       [](uint64_t K) {
                         return static_cast<uint32_t>(
                             ServeWarmupSessions + K % ServeSteadySessions);
                       },
                       Limit);
}

ServeInputs serveInputs(uint64_t Seed) {
  ServeInputs In;
  In.Site = buildSiteBundle(In.Model, deriveSeed(Seed, 2));
  uint64_t SessionSeed = deriveSeed(Seed, 3);
  const unsigned N = ServeWarmupSessions + ServeSteadySessions;
  In.Sessions.reserve(N);
  for (uint64_t Id = 0; Id != N; ++Id) {
    RNG Rand(SessionSeed * 1000003ull + Id * 2654435761ull + 1);
    In.Sessions.push_back(generateSession(In.Site, In.Model, Rand));
  }
  // Reference: the same sessions through the same window, interpreter
  // only. A failed request leaves 0, which no FNV-1a checksum equals.
  In.Ref.assign(static_cast<size_t>(N) * In.Model.RequestsPerSession, 0);
  ServeEngine SE(/*Jit=*/false, In.Model.CallsPerRequest);
  if (!SE.load(In.Site.Source))
    return In;
  uint32_t Session = 0;
  unsigned Req = 0;
  double Seconds = 0;
  bool Error = false;
  for (SessionWindow W = warmupWindow(In); W.next(Session, Req);) {
    uint64_t H = serveRequest(SE, In, Session, Req, Seconds, Error);
    In.ref(Session, Req) = Error ? 0 : H;
  }
  for (SessionWindow W = steadyWindow(In, ServeSteadySessions);
       W.next(Session, Req);) {
    uint64_t H = serveRequest(SE, In, Session, Req, Seconds, Error);
    In.ref(Session, Req) = Error ? 0 : H;
  }
  return In;
}

/// The best time and compile time of every request of a block of
/// sessions [FirstSession, FirstSession + Sessions) over repetitions.
struct RequestBests {
  uint32_t FirstSession;
  unsigned RequestsPerSession;
  std::vector<double> Seconds, CompileS;

  RequestBests(uint32_t FirstSession, unsigned Sessions,
               unsigned RequestsPerSession)
      : FirstSession(FirstSession), RequestsPerSession(RequestsPerSession),
        Seconds(static_cast<size_t>(Sessions) * RequestsPerSession, 1e30),
        CompileS(Seconds.size(), 1e30) {}

  void add(uint32_t Session, unsigned Req, double S, double C) {
    size_t I = static_cast<size_t>(Session - FirstSession) *
                   RequestsPerSession + Req;
    Seconds[I] = std::min(Seconds[I], S);
    CompileS[I] = std::min(CompileS[I], C);
  }
};

/// Serves requests from \p W until it runs dry, \p StopAtS passes or
/// \p MaxRequests were served. Returns the number served; request times
/// go to \p Bests when given.
uint64_t serveLoop(ServeEngine &SE, ServeInputs &In, SessionWindow &W,
                   Result &R, double StopAtS, RequestBests *Bests,
                   uint64_t MaxRequests = UINT64_MAX, Tracer *T = nullptr,
                   uint32_t *OpId = nullptr) {
  uint64_t Start = nowNs();
  uint64_t Served = 0;
  uint32_t Session = 0;
  unsigned Req = 0;
  double Seconds = 0;
  bool Error = false;
  while (W.next(Session, Req)) {
    if (T) {
      T->setOp((*OpId)++);
      T->beginSpan(SpanKind::Request);
    }
    double CompileBefore = SE.E ? SE.E->stats().CompileSeconds : 0;
    uint64_t H = serveRequest(SE, In, Session, Req, Seconds, Error);
    if (T)
      T->endSpan();
    ++R.Attempted;
    R.Failed += Error || H != In.ref(Session, Req);
    if (Bests)
      Bests->add(Session, Req, Seconds,
                 SE.E->stats().CompileSeconds - CompileBefore);
    if (++Served == MaxRequests)
      break;
    // Checking the clock every request costs ~20 ns; every 64th is
    // enough for a stop time measured in seconds.
    if ((Served & 63) == 0 && secondsSince(Start) >= StopAtS)
      break;
  }
  return Served;
}

void measureServe(ServeInputs &In, const Options &O, Result &R) {
  const unsigned RPS = In.Model.RequestsPerSession;
  // Warm-up samples: a fresh engine serving the warm-up sessions. The
  // first one's engine serves the steady state; the others are spread
  // over the run.
  RequestBests Warm(0, ServeWarmupSessions, RPS);
  unsigned Warmups = 0;
  double HeapBase = heapInUseBytes();
  auto WarmUp = [&]() -> std::unique_ptr<ServeEngine> {
    rotateCpu();
    auto SE = std::make_unique<ServeEngine>(/*Jit=*/true,
                                            In.Model.CallsPerRequest);
    if (!SE->load(In.Site.Source))
      return nullptr;
    SessionWindow W = warmupWindow(In);
    serveLoop(*SE, In, W, R, 1e30, &Warm);
    ++Warmups;
    return SE;
  };
  std::unique_ptr<ServeEngine> SE = WarmUp();
  if (!SE) {
    R.Correct = false;
    return;
  }
  double WarmHeapBytes = heapInUseBytes() - HeapBase;
  uint64_t WarmCompiles = SE->E->stats().Compilations;

  // Steady state: rounds of requests, each round on the next CPU, until
  // the time is up; every distinct steady request is served once per
  // 2,048 sessions, and its time is its best.
  RequestBests Steady(ServeWarmupSessions, ServeSteadySessions, RPS);
  SessionWindow W = steadyWindow(In, UINT64_MAX);
  double NextWarmup = O.Seconds / ServeWarmups;
  uint64_t Served = 0;
  uint64_t Start = nowNs();
  while (secondsSince(Start) < O.Seconds) {
    rotateCpu();
    Served += serveLoop(*SE, In, W, R, 1e30, &Steady, ServeRoundRequests);
    if (secondsSince(Start) >= NextWarmup) {
      if (!WarmUp())
        R.Correct = false;
      NextWarmup += O.Seconds / ServeWarmups;
    }
  }

  double WarmupS = 0, WarmCompileS = 0;
  for (size_t I = 0; I != Warm.Seconds.size(); ++I) {
    WarmupS += Warm.Seconds[I];
    WarmCompileS += Warm.CompileS[I];
  }
  R.Metrics.push_back({"warmup_s", WarmupS, "s"});
  addOpMetrics(R, Steady.Seconds, "one request of 8 drive calls");
  R.Metrics.push_back(
      {"compile_us_per_op", WarmCompileS / Warm.Seconds.size() * 1e6, "us"});
  R.Metrics.push_back(
      {"code_instrs", static_cast<double>(fig10Instrs(*SE->E)), "count"});
  R.Metrics.push_back({"live_heap_mb", WarmHeapBytes / MiB, "MB"});
  R.Detail.push_back(
      {"runs_per_op", std::to_string(Served / Steady.Seconds.size())});
  R.Detail.push_back({"warmups", std::to_string(Warmups)});
  R.Detail.push_back({"warmup_compiles", std::to_string(WarmCompiles)});
  R.Detail.push_back(
      {"steady_compiles",
       std::to_string(SE->E->stats().Compilations - WarmCompiles)});
}

TracedPass tracedServePass(ServeInputs &In, Tracer &T) {
  TracedPass Pass;
  Result Counts;
  Layers L;
  ServeEngine SE(/*Jit=*/true, In.Model.CallsPerRequest);
  T.attach(SE.RT, *SE.E);
  uint32_t OpId = 0;
  T.setOp(OpId++);
  if (SE.load(In.Site.Source, &T, &L)) {
    SessionWindow Warm = warmupWindow(In);
    serveLoop(SE, In, Warm, Counts, 1e30, nullptr, UINT64_MAX, &T, &OpId);
    SessionWindow Steady = steadyWindow(In, ServeTracedSessions);
    serveLoop(SE, In, Steady, Counts, 1e30, nullptr, UINT64_MAX, &T, &OpId);
  } else {
    ++Counts.Failed;
  }
  T.detach();
  L.collect(SE.RT, *SE.E, T);
  L.addMetrics(Pass.Metrics, T);
  Pass.Attempted = Counts.Attempted;
  Pass.Failed = Counts.Failed;
  Pass.MismatchNotes = L.MismatchNotes;
  return Pass;
}

void traceServeRun(ServeInputs &In, const Options &O, Result &R) {
  TracedPass A, B;
  {
    Tracer TA(SpanCapacity);
    A = tracedServePass(In, TA);
    writeSpans(TA, O, R);
  }
  {
    Tracer TB(OverheadSpanCapacity);
    B = tracedServePass(In, TB);
  }

  // Tracing overhead on a warmed engine.
  ServeEngine SE(/*Jit=*/true, In.Model.CallsPerRequest);
  if (!SE.load(In.Site.Source)) {
    R.Correct = false;
    return;
  }
  SessionWindow Warm = warmupWindow(In);
  serveLoop(SE, In, Warm, R, 1e30, nullptr);
  SessionWindow W = steadyWindow(In, UINT64_MAX);
  Tracer T(OverheadSpanCapacity);
  uint32_t OpId = 0;
  Overhead Cost = measureOverhead(O.Seconds, [&](bool Traced) {
    if (Traced)
      T.attach(SE.RT, *SE.E);
    uint64_t N = serveLoop(SE, In, W, R, 1e30, nullptr, ServeRoundRequests,
                           Traced ? &T : nullptr, &OpId);
    if (Traced)
      T.detach();
    return N;
  });
  finishTraced(R, A, B, Cost);
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

/// Runs \p Setup SetupReps times and for SetupMinSeconds (once when
/// traced), each on the next CPU, and reports the median as setup_s;
/// returns the last inputs.
template <typename Fn>
auto timedSetup(const Options &O, Result &R, Fn &&Setup) {
  std::vector<double> Times;
  uint64_t Start = nowNs();
  for (;;) {
    rotateCpu();
    uint64_t RepStart = nowNs();
    auto In = Setup();
    Times.push_back(secondsSince(RepStart));
    if (O.Trace || (Times.size() >= SetupReps &&
                    secondsSince(Start) >= SetupMinSeconds)) {
      if (!O.Trace)
        R.Metrics.push_back({"setup_s", median(Times), "s"});
      R.Detail.push_back({"setups", std::to_string(Times.size())});
      return In;
    }
  }
}

void finishEndToEnd(Result &R) {
  R.Detail.push_back({"peak_rss_mb", jsonNumber(peakRssMb())});
  R.Metrics.push_back(
      {"ok_ratio", 1.0 - ratio(R.Failed, R.Attempted), "ratio"});
}

} // namespace

std::string jitbench::jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

bool jitbench::runWorkload(const Options &O, Result &R) {
  if (O.Workload == "serve") {
    ServeInputs In = timedSetup(O, R, [&] { return serveInputs(O.Seed); });
    if (O.Trace)
      traceServeRun(In, O, R);
    else
      measureServe(In, O, R);
  } else if (O.Workload == "suites" || O.Workload == "compile-churn") {
    bool Suites = O.Workload == "suites";
    unsigned Replaced = 0;
    std::vector<Script> Ps = timedSetup(O, R, [&] {
      return Suites ? suitesInputs(O.Seed) : churnInputs(O.Seed, Replaced);
    });
    if (!Suites)
      R.Detail.push_back({"replaced_long_programs", std::to_string(Replaced)});
    if (O.Trace)
      traceProgramsRun(Ps, O, R);
    else
      measurePrograms(Ps, O, R);
  } else {
    return false;
  }
  if (!O.Trace)
    finishEndToEnd(R);
  R.Detail.push_back(
      {"fail_ratio", jsonNumber(ratio(R.Failed, R.Attempted))});
  R.Correct = R.Correct && R.Failed == 0;
  return true;
}
