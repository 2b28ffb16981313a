//===- jitbench/src/Tracer.h - Per-layer tracing from outside the engine --===//
///
/// \file
/// The traced run's instrument. A Tracer is a forwarding ExecutionHooks
/// installed with Runtime::setHooks in front of the Engine: every
/// onCall/onLoopHead crossing becomes a span, EngineStats are read before
/// and after it, and every compile the engine performed at that crossing
/// is replayed once through the public pipeline functions (buildMIR ->
/// runClosureInlining -> passes -> generateCode -> fuseMacroOps) so each
/// compile stage gets its own time and size. Nothing inside src/ is
/// changed or subclassed; the engine runs exactly as in the untraced run.
///
/// Spans are kept in memory (name, start, end, parent, op id) and
/// written out when the run ends. Self time of a span excludes its
/// children: a native CallT that re-enters through Runtime::callValue
/// shows up as a nested crossing, and compile replays are children of
/// the span they were made in, so they never count as engine time.
///
//===----------------------------------------------------------------------===//

#ifndef JITBENCH_TRACER_H
#define JITBENCH_TRACER_H

#include "jit/Engine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace jitbench {

using namespace jitvs;

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

enum class SpanKind : uint8_t {
  Op,
  Load,
  Run,
  Request,
  OnCall,
  LoopHead,
  Replay
};
const char *spanKindName(SpanKind K);

struct Span {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = 0; ///< 1-based index of the parent span, 0 = none.
  uint32_t Op = 0;
  SpanKind Kind = SpanKind::Op;
};

/// Totals of one compile stage replay, summed over all replayed compiles.
struct ReplayTotals {
  uint64_t Compiles = 0;
  double BuildS = 0;
  uint64_t MirNodes = 0;
  /// Indexed by PassId.
  double PassS[6] = {};
  uint64_t PassNodesAfter[6] = {};
  uint64_t InlinedSites = 0;
  double CodegenS = 0;
  uint64_t Instrs = 0, Spills = 0, VRegs = 0;
  double FusionS = 0;
  uint64_t FusedPairs = 0, InstrsPostFusion = 0;
  /// Compiles the wrapper saw but could not replay (more than one
  /// compile attributed to a single crossing, which the synchronous
  /// engine never does).
  uint64_t Unattributed = 0;
};

enum PassId { PassInline, PassGVN, PassCP, PassLI, PassDCE, PassBCE };
extern const char *const PassNames[6];

/// Crossing-level counts and times, summed over every engine a Tracer
/// was attached to.
struct CrossingTotals {
  uint64_t OnCallN = 0, OnCallHandled = 0;
  uint64_t LoopHeadN = 0, LoopHeadHandled = 0;
  double OnCallSelfS = 0;   ///< Self time of onCall crossings.
  double CrossSelfS = 0;    ///< Self time of all crossings.
  double CompileS = 0;      ///< EngineStats::CompileSeconds, all crossings.
};

class Tracer final : public ExecutionHooks {
public:
  /// \p SpanCapacity bounds the span buffer; spans past it are counted
  /// as dropped, not kept (long overhead loops would otherwise grow it
  /// without bound).
  explicit Tracer(size_t SpanCapacity);
  ~Tracer() override;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Installs this tracer in front of \p E on \p RT. One engine at a
  /// time; detach() before the engine is destroyed.
  void attach(Runtime &RT, Engine &E);
  void detach();

  /// Op-level spans (program run, parse, top-level run, serve request).
  /// Root kinds (Run, Request) delimit where interpreter self time is
  /// measured: their duration minus the depth-0 wrapper time inside.
  void beginSpan(SpanKind K);
  void endSpan();
  void setOp(uint32_t Op) { CurOp = Op; }

  bool onCall(JSFunction *Callee, const Value &ThisV, const Value *Args,
              size_t NumArgs, Value &Result) override;
  bool onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) override;

  const CrossingTotals &crossings() const { return Cross; }
  const ReplayTotals &replay() const { return Rep; }
  /// Interpreter self time: root-span time outside depth-0 crossings.
  double interpSelfS() const {
    return static_cast<double>(InterpSelfNs) * 1e-9;
  }
  /// Smallest replayed body per function name (cross-check against
  /// FunctionReport::MinCodeSize).
  const std::map<std::string, size_t> &replayMinSize() const {
    return ReplayMin;
  }
  void clearReplayMin() { ReplayMin.clear(); }

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t spansDropped() const { return Dropped; }
  /// Writes the retained spans as CSV (id,parent,op,name,start_ns,end_ns).
  bool writeSpans(const std::string &Path) const;

private:
  struct Frame {
    uint32_t SpanIdx = 0; ///< 1-based, 0 = not retained.
    uint64_t StartNs = 0;
    uint64_t ChildNs = 0;
    uint64_t CompilesAtStart = 0, ChildCompiles = 0;
    uint64_t SpecAtStart = 0, ChildSpec = 0;
    double CompileSAtStart = 0, ChildCompileS = 0;
    uint64_t WrapperAtStart = 0; ///< Depth0WrapperNs at a root span's start.
    SpanKind Kind = SpanKind::Op;
  };

  struct Crossing {
    uint64_t StartNs = 0, EndNs = 0;
    /// Compiles (and specialized compiles) at the crossing's own level,
    /// not in nested crossings.
    uint64_t SelfCompiles = 0, SelfSpec = 0;
  };

  uint32_t pushSpan(SpanKind K, uint64_t Start);
  /// Pushes a crossing frame; \returns the saved feedback of \p Info.
  const FeedbackMap &enterCrossing(SpanKind K, const FunctionInfo *Info);
  Crossing leaveCrossing();
  /// Accounts depth-0 wrapper time once any replay is done.
  void finishCrossing(const Crossing &C, bool Replayed);
  void addChildToTop(uint64_t Ns, uint64_t Compiles, uint64_t Spec,
                     double CompileS);
  /// Replays one compile against \p Info's feedback \p Before the
  /// crossing. \p Args null => generic; \p OsrPc non-null builds an OSR
  /// entry with \p OsrSlots when specialized.
  void replayCompile(FunctionInfo *Info, const FeedbackMap &Before,
                     const Value *Args, size_t NumArgs, const uint32_t *OsrPc,
                     const std::vector<Value> *OsrSlots);

  size_t SpanCapacity;
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
  std::vector<Frame> Stack;
  std::vector<std::unique_ptr<FeedbackMap>> SavedFeedback;
  uint32_t CurOp = 0;
  unsigned CrossDepth = 0;

  Runtime *RT = nullptr;
  Engine *Eng = nullptr;
  /// Private heap for replay-time constant folding, so replays never
  /// allocate on the measured heap (GC counts stay those of the run).
  std::unique_ptr<Runtime> FoldRT;

  CrossingTotals Cross;
  ReplayTotals Rep;
  /// Time inside the wrapper at crossing depth 0, replays included.
  uint64_t Depth0WrapperNs = 0;
  uint64_t InterpSelfNs = 0;
  std::map<std::string, size_t> ReplayMin;
};

} // namespace jitbench

#endif // JITBENCH_TRACER_H
