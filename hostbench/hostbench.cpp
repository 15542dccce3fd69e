//===- hostbench/hostbench.cpp - Host-time benchmark driver -----------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the simulator costs in host time, from outside the VM:
// every layer is reached through its public functions (or a forwarding
// implementation of a public interface), and every op's modelled
// results are checked against committed reference digests.
//
//   hostbench --workload suite|sweep|adaptive|fuzz --seed N --seconds S
//             --trace 0|1 [--reference FILE] [--record FILE]
//             [--trace-out FILE] [--corrupt-reference]
//             [--commit SHA] [--source-digest HEX]
//
// Each workload is a closed loop with one client. The untraced run
// (--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
// alternates untraced and traced passes over the same inputs and prints
// per-layer self times taken from in-memory spans, plus the tracing
// overhead. The last stdout line is the result object; the line before
// it carries provenance and the modelled totals. See README.md.
//
//===----------------------------------------------------------------------===//

#include "aos/AdaptiveSystem.h"
#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "fuzz/Fuzzer.h"
#include "opt/InlineOracle.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfileRepository.h"
#include "profiling/ProfilerRegistry.h"
#include "support/Json.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdarg>
#include <chrono>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace cbs;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "hostbench: %s\n", Msg.c_str());
  std::exit(2);
}

uint64_t fnv1a(const void *Data, size_t Len,
               uint64_t H = 1469598103934665603ull) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t hashString(const std::string &S) { return fnv1a(S.data(), S.size()); }

uint64_t hashOutput(const std::vector<int64_t> &Out) {
  return fnv1a(Out.data(), Out.size() * sizeof(int64_t));
}

std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

/// Continued fraction of the incomplete beta function (modified Lentz).
double betaContinuedFraction(double A, double B, double X) {
  constexpr double Tiny = 1e-300;
  auto Clamp = [](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / Clamp(1 - (A + B) * X / (A + 1)), H = D;
  for (int M = 1; M <= 10'000; ++M) {
    double Even = M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M));
    D = 1 / Clamp(1 + Even * D);
    C = Clamp(1 + Even / C);
    H *= D * C;
    double Odd = -(A + M) * (A + B + M) * X / ((A + 2 * M) * (A + 2 * M + 1));
    D = 1 / Clamp(1 + Odd * D);
    C = Clamp(1 + Odd / C);
    H *= D * C;
    if (std::fabs(D * C - 1) < 1e-15)
      break;
  }
  return H;
}

/// Regularized incomplete beta function I_X(A, B).
double betaRegularized(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) -
                          std::lgamma(B) + A * std::log(X) +
                          B * std::log1p(-X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaContinuedFraction(A, B, X) / A;
  return 1 - Front * betaContinuedFraction(B, A, 1 - X) / B;
}

/// Harrell-Davis estimate of quantile \p Q: the mean of all order
/// statistics weighted by a Beta((n+1)Q, (n+1)(1-Q)) density. A latency
/// sample built from a few dozen distinct ops has gaps between them;
/// a single order statistic jumps across a gap on small noise, this
/// weighted mean moves smoothly.
double quantile(std::vector<double> V, double Q) {
  if (V.size() < 2)
    return V.empty() ? 0 : V[0];
  std::sort(V.begin(), V.end());
  double N = static_cast<double>(V.size());
  double A = (N + 1) * Q, B = (N + 1) * (1 - Q);
  double Sum = 0, Prev = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double Cur = betaRegularized(A, B, static_cast<double>(I + 1) / N);
    Sum += (Cur - Prev) * V[I];
    Prev = Cur;
  }
  return Sum;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

//===----------------------------------------------------------------------===//
// Tracing: in-memory spans around the layer calls the benchmark makes
//===----------------------------------------------------------------------===//

/// Span names are views: string literals, or names interned here.
class Tracer {
public:
  /// A stable view of \p Name that lives as long as the tracer.
  std::string_view intern(std::string Name) {
    return *Interned.insert(std::move(Name)).first;
  }

  struct SpanRecord {
    std::string_view Name;
    uint64_t Op = 0;
    int64_t Parent = -1;
    int64_t Start = 0;
    int64_t End = 0;
  };

  bool on() const { return On; }
  void setOn(bool B) { On = B; }

  /// Opens the root span of op \p Id. Spans of one op share the id.
  void beginOp(uint64_t Id, std::string_view Name) {
    Op = Id;
    KeepOp = Kept.size() < MaxKept;
    begin(Name);
  }

  void begin(std::string_view Name) {
    int64_t Index = -1;
    int64_t Start = nowNs();
    if (KeepOp && Kept.size() < MaxKept) {
      Index = static_cast<int64_t>(Kept.size());
      Kept.push_back({Name, Op, Stack.empty() ? -1 : Stack.back().Index, Start,
                      Start});
    }
    Stack.push_back({Name, Start, 0, Index});
  }

  /// Closes the innermost span; returns {duration, self time} in ns.
  std::pair<int64_t, int64_t> end() {
    Frame F = Stack.back();
    Stack.pop_back();
    int64_t End = nowNs();
    int64_t Dur = End - F.Start;
    int64_t Self = Dur - F.ChildNs;
    SelfNs[F.Name] += Self;
    if (!Stack.empty())
      Stack.back().ChildNs += Dur;
    if (F.Index >= 0)
      Kept[F.Index].End = End;
    return {Dur, Self};
  }

  int64_t self(std::string_view Name) const {
    auto It = SelfNs.find(Name);
    return It == SelfNs.end() ? 0 : It->second;
  }

  /// Returns the accumulated self times and starts a fresh tally.
  std::unordered_map<std::string_view, int64_t> takeSelf() {
    return std::exchange(SelfNs, {});
  }

  size_t keptSpans() const { return Kept.size(); }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  std::string chromeJson(const std::string &OtherDataJson) const {
    int64_t Base = Kept.empty() ? 0 : Kept.front().Start;
    json::JsonWriter W;
    W.beginObject();
    W.key("displayTimeUnit");
    W.value("ms");
    W.key("otherData");
    W.raw(OtherDataJson);
    W.key("traceEvents");
    W.beginArray();
    for (size_t I = 0; I != Kept.size(); ++I) {
      const SpanRecord &S = Kept[I];
      W.beginObject();
      W.key("name");
      W.value(S.Name);
      W.key("cat");
      W.value(S.Name.substr(0, S.Name.find('.')));
      W.key("ph");
      W.value("X");
      W.key("pid");
      W.value(1);
      W.key("tid");
      W.value(1);
      W.key("ts");
      W.value(static_cast<double>(S.Start - Base) / 1e3);
      W.key("dur");
      W.value(static_cast<double>(S.End - S.Start) / 1e3);
      W.key("args");
      W.beginObject();
      W.key("op");
      W.value(S.Op);
      W.key("span");
      W.value(static_cast<uint64_t>(I));
      W.key("parent");
      W.value(S.Parent);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return W.take();
  }

private:
  struct Frame {
    std::string_view Name;
    int64_t Start;
    int64_t ChildNs;
    int64_t Index;
  };
  /// Bounds the trace file; self times keep accumulating past it.
  static constexpr size_t MaxKept = 200'000;

  bool On = false;
  bool KeepOp = false;
  uint64_t Op = 0;
  std::vector<Frame> Stack;
  std::unordered_map<std::string_view, int64_t> SelfNs;
  std::vector<SpanRecord> Kept;
  /// Node-based, so element addresses survive rehashing.
  std::unordered_set<std::string> Interned;
};

/// RAII span; free (one branch) while tracing is off.
class Span {
public:
  Span(Tracer &T, std::string_view Name) : T(T.on() ? &T : nullptr) {
    if (this->T)
      this->T->begin(Name);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

//===----------------------------------------------------------------------===//
// Forwarding implementations of public interfaces (traced runs only)
//===----------------------------------------------------------------------===//

/// opt: times each whole-program inline plan the AOS asks for.
class TimedInlineOracle final : public opt::InlineOracle {
public:
  TimedInlineOracle(const opt::InlineOracle &Inner, Tracer &T)
      : Inner(Inner), T(T) {}
  opt::InlinePlan plan(const bc::Program &P,
                       const prof::DCGSnapshot &DCG) const override {
    Span S(T, "opt.plan");
    return Inner.plan(P, DCG);
  }
  const char *name() const override { return Inner.name(); }

private:
  const opt::InlineOracle &Inner;
  Tracer &T;
};

/// aos: times the adaptive system's three VM hooks.
class TimedClient final : public vm::VMClient {
public:
  TimedClient(vm::VMClient &Inner, Tracer &T) : Inner(Inner), T(T) {}
  void onStartup(vm::VirtualMachine &VM) override {
    Span S(T, "aos.startup");
    Inner.onStartup(VM);
  }
  void onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) override {
    Span S(T, "aos.tick");
    Inner.onTimerTick(VM, Top);
  }
  void onYieldpoint(vm::VirtualMachine &VM) override {
    Span S(T, "aos.yieldpoint");
    Inner.onYieldpoint(VM);
  }

private:
  vm::VMClient &Inner;
  Tracer &T;
};

/// opt: times first-touch compiles through the configured hook.
void timeCompiles(vm::VMConfig &C, Tracer &T) {
  auto Inner = std::move(C.CompileHook);
  C.CompileHook = [Inner = std::move(Inner), &T](const bc::Program &P,
                                                 bc::MethodId M, int Level) {
    Span S(T, "opt.jit_compile");
    return Inner(P, M, Level);
  };
}

/// fuzz: times one builtin oracle's checks.
class TimedFuzzOracle final : public fuzz::Oracle {
public:
  TimedFuzzOracle(const fuzz::Oracle &Inner, Tracer &T)
      : Inner(Inner), T(T),
        Layer(T.intern(std::string("fuzz.oracle.") + Inner.id())) {}
  const char *id() const override { return Inner.id(); }
  const char *describe() const override { return Inner.describe(); }
  std::string check(const fuzz::OracleInput &In) const override {
    Span S(T, Layer);
    return Inner.check(In);
  }
private:
  const fuzz::Oracle &Inner;
  Tracer &T;
  std::string_view Layer;
};

//===----------------------------------------------------------------------===//
// Harness: timing, checking and accounting of ops
//===----------------------------------------------------------------------===//

/// Exact modelled counts that explain the host times.
struct Counts {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Calls = 0;
  uint64_t Yieldpoints = 0;
  uint64_t Samples = 0;
  uint64_t Edges = 0;
  uint64_t Flushes = 0;
  uint64_t Installs = 0;
  uint64_t Plans = 0;
  uint64_t Deopts = 0;
  uint64_t OsrEntries = 0;
  uint64_t FirstInstall = 0;
  uint64_t OracleChecks = 0;
  uint64_t RunnerBusyUs = 0;
  uint64_t RunnerWallUs = 0;

  void add(const Counts &O) {
    Cycles += O.Cycles;
    Instructions += O.Instructions;
    Calls += O.Calls;
    Yieldpoints += O.Yieldpoints;
    Samples += O.Samples;
    Edges += O.Edges;
    Flushes += O.Flushes;
    Installs += O.Installs;
    Plans += O.Plans;
    Deopts += O.Deopts;
    OsrEntries += O.OsrEntries;
    FirstInstall += O.FirstInstall;
    OracleChecks += O.OracleChecks;
    RunnerBusyUs += O.RunnerBusyUs;
    RunnerWallUs += O.RunnerWallUs;
  }
};

uint64_t counterOf(const tel::MetricRegistry &R, const char *Name) {
  if (const tel::Counter *C = R.findCounter(Name))
    return C->Value;
  return 0;
}

void readVMCounts(vm::VirtualMachine &VM, Counts &C) {
  const tel::MetricRegistry &R = VM.metrics();
  C.Cycles = counterOf(R, "vm.cycles");
  C.Instructions = counterOf(R, "vm.instructions");
  C.Calls = counterOf(R, "vm.calls_executed");
  C.Yieldpoints = counterOf(R, "vm.yieldpoints_taken");
  C.Samples = counterOf(R, "vm.samples_taken");
  C.Flushes = counterOf(R, "dcg.flushes");
  C.OsrEntries = counterOf(R, "vm.osr_entries");
}

struct OpResult {
  /// Reference-digest key; ops with equal keys must agree.
  std::string Key;
  std::string Digest;
  /// Non-empty: an invariant failed and the op counts as failed.
  std::string Error;
  /// Ops this record stands for (a sweep pass is one batch of cells).
  uint64_t Ops = 1;
  /// Profiler of a VM op ("" when the op is not one VM run).
  const char *Profiler = "";
  Counts C;
};

using DigestMap = std::map<std::string, std::string>;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference;
  std::string Record;
  std::string TraceOut;
  bool CorruptReference = false;
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

class Harness {
public:
  Tracer T;

  void setReference(DigestMap Ref) {
    Reference = std::move(Ref);
    HaveReference = true;
  }

  /// Starts timing an op (and, when tracing, its root span).
  int64_t start() {
    if (T.on()) {
      T.beginOp(NextOp++, "op");
      RunSelfAtStart = T.self("vm.run");
    }
    return nowNs();
  }

  /// Stops timing; returns the op's wall time in ns.
  int64_t stop(int64_t Start) {
    int64_t Wall = nowNs() - Start;
    if (T.on()) {
      std::tie(LastDur, LastSelf) = T.end();
      LastRunSelf = T.self("vm.run") - RunSelfAtStart;
    }
    return Wall;
  }

  /// True once a warm-up pass has run its course; passes check it
  /// between ops.
  bool stopping() const { return WarmupEndNs != 0 && nowNs() >= WarmupEndNs; }

  /// Books a failed check made outside any op, in set-up.
  void failOutsideOp(const std::string &What, const std::string &Error) {
    Attempted += 1;
    Failed += 1;
    report(What, Error);
  }

  /// Checks \p R's digest and books the op. Untimed.
  void finish(OpResult R, int64_t WallNs) {
    checkDigest(R);
    Attempted += R.Ops;
    if (!R.Error.empty()) {
      Failed += R.Ops;
      report(R.Key, R.Error);
    } else {
      PassCompleted += R.Ops;
    }
    if (WarmupEndNs != 0)
      return;
    PassCounts.add(R.C);
    if (T.on()) {
      TracedOps += R.Ops;
      TracedOpNs += LastDur;
      UnattributedNs += LastSelf;
      if (static_cast<double>(LastSelf) >
          TolerancePct / 100 * static_cast<double>(LastDur))
        OpsOverTolerance += 1;
      TracedCounts.add(R.C);
      if (*R.Profiler) {
        RunNsByProfiler[R.Profiler] += LastRunSelf;
        InstrByProfiler[R.Profiler] += R.C.Instructions;
      }
    } else {
      double Ms = static_cast<double>(WallNs) / 1e6;
      if (R.Ops == 1)
        LatencyMs.push_back(Ms);
      else
        BatchLatencyMs.push_back(Ms / static_cast<double>(R.Ops));
      UntracedOpNs += WallNs;
      UntracedInstr += R.C.Instructions;
    }
  }

  /// Non-zero while warming up: ops are checked but not measured.
  int64_t WarmupEndNs = 0;
  bool HaveReference = false;
  DigestMap Reference;
  /// First occurrence of each key in this run (the determinism check
  /// for seeds without a reference) and the record-mode output.
  DigestMap Seen;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t PassCompleted = 0;
  Counts PassCounts;
  Counts TracedCounts;
  std::vector<double> LatencyMs;
  std::vector<double> BatchLatencyMs;
  int64_t UntracedOpNs = 0;
  uint64_t UntracedInstr = 0;

  /// The layer self times of a traced op must sum to its wall time
  /// within this share; the op span's own self time is the residue.
  static constexpr double TolerancePct = 2;
  uint64_t OpsOverTolerance = 0;
  uint64_t TracedOps = 0;
  int64_t TracedOpNs = 0;
  int64_t UnattributedNs = 0;
  std::map<std::string, int64_t> RunNsByProfiler;
  std::map<std::string, uint64_t> InstrByProfiler;

private:
  void report(const std::string &What, const std::string &Error) {
    if (++FailuresShown <= 10)
      std::fprintf(stderr, "hostbench: FAILED %s: %s\n", What.c_str(),
                   Error.c_str());
  }

  void checkDigest(OpResult &R) {
    if (R.Digest.empty())
      return;
    auto [It, New] = Seen.emplace(R.Key, R.Digest);
    const std::string *Want = New ? nullptr : &It->second;
    if (HaveReference) {
      auto Ref = Reference.find(R.Key);
      if (Ref == Reference.end()) {
        if (R.Error.empty())
          R.Error = "no reference digest for this key";
        return;
      }
      Want = &Ref->second;
    }
    if (Want && *Want != R.Digest && R.Error.empty())
      R.Error = "digest mismatch: got '" + R.Digest + "', want '" + *Want +
                "'";
  }

  uint64_t NextOp = 0;
  unsigned FailuresShown = 0;
  int64_t RunSelfAtStart = 0;
  /// The last traced op's wall time, own self time and vm.run self time.
  int64_t LastDur = 0;
  int64_t LastSelf = 0;
  int64_t LastRunSelf = 0;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds and verifies the inputs. Called several times; the last
  /// call's products are the ones the passes use.
  virtual void setup(Harness &H) = 0;
  /// One pass over the workload's ops. \p Block selects the inputs for
  /// workloads whose ops are all distinct (fuzz); a traced pass reuses
  /// its untraced partner's block.
  virtual void pass(Harness &H, uint64_t Block) = 0;
  /// Worker threads the workload fans out to (1 = serial).
  virtual unsigned jobs() const { return 1; }
};

struct BuiltProgram {
  std::string Name;
  bc::Program P;
  /// Prints from several green threads, so the order of its output
  /// depends on where threads switch, which profiling may move.
  bool Multithreaded = false;
};

/// The 13 Table-1 programs plus `phased`, built and verified in spans.
std::vector<BuiltProgram> buildSuite(Tracer &T, wl::InputSize Size,
                                     uint64_t Seed, bool WithPhased) {
  std::vector<BuiltProgram> Out;
  auto Add = [&](const char *Name,
                 bc::Program (*Build)(wl::InputSize, uint64_t),
                 bool Multithreaded) {
    bc::Program P = [&] {
      Span S(T, "workloads.build");
      return Build(Size, Seed);
    }();
    {
      Span S(T, "bytecode.verify");
      if (bc::VerifyResult VR = bc::verifyProgram(P); !VR.ok())
        die(std::string("program ") + Name + " fails verification:\n" +
            VR.str());
    }
    Out.push_back({Name, std::move(P), Multithreaded});
  };
  for (const wl::WorkloadInfo &W : wl::suite())
    Add(W.Name, W.Build, W.Multithreaded);
  if (WithPhased)
    Add("phased", wl::buildPhased, false);
  return Out;
}

/// Output equality; for a multithreaded program, of the printed values
/// regardless of the order the threads printed them in.
bool sameOutput(std::vector<int64_t> A, std::vector<int64_t> B,
                bool Multithreaded) {
  if (Multithreaded) {
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
  }
  return A == B;
}

bool sameEdges(const prof::DCGSnapshot &A, const prof::DCGSnapshot &B) {
  return A.sortedEdges() == B.sortedEdges();
}

/// Every edge of \p Sub has positive weight in \p Super.
bool edgeSubset(const prof::DCGSnapshot &Sub, const prof::DCGSnapshot &Super) {
  for (const auto &[E, W] : Sub.sortedEdges())
    if (W != 0 && Super.weight(E) == 0)
      return false;
  return true;
}

std::string stateError(vm::VirtualMachine &VM, vm::RunState Want) {
  if (VM.state() == Want)
    return "";
  std::string E = std::string("run ended in state ") +
                  vm::runStateName(VM.state());
  if (VM.state() == vm::RunState::Trapped)
    E += ": " + VM.trapMessage();
  return E;
}

/// `suite`: the 14 programs at large in the JIT-only config, each under
/// none, exhaustive and cbs (knee) — the traffic of `cbsvm run` and
/// Tables 2-3. Almost all host time is interpreter dispatch.
class SuiteWorkload final : public Workload {
public:
  explicit SuiteWorkload(uint64_t Seed) : Seed(Seed) {}

  void setup(Harness &H) override {
    Progs = buildSuite(H.T, wl::InputSize::Large, Seed, /*WithPhased=*/true);
    Configs.clear();
    for (const BuiltProgram &B : Progs) {
      std::array<vm::VMConfig, 3> C;
      for (size_t K = 0; K != 3; ++K) {
        C[K] = exp::jitOnlyConfig(B.P, vm::Personality::JikesRVM, Seed);
        if (K == CBS)
          C[K].Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
        else if (!prof::ProfilerRegistry::instance().configure(Names[K],
                                                               C[K].Profiler))
          die(std::string("unknown profiler ") + Names[K]);
      }
      Configs.push_back(std::move(C));
    }
  }

  void pass(Harness &H, uint64_t) override {
    Tracer &T = H.T;
    for (size_t I = 0; I != Progs.size(); ++I) {
      const bc::Program &P = Progs[I].P;
      std::vector<int64_t> NoneOutput;
      prof::DCGSnapshot Exhaustive;
      for (size_t K : {None, Exhaustive_, CBS}) {
        if (H.stopping())
          return;
        OpResult R;
        R.Key = Progs[I].Name + "/" + Names[K];
        R.Profiler = Names[K];
        vm::VMConfig Config = Configs[I][K];
        if (T.on())
          timeCompiles(Config, T);

        int64_t Start = H.start();
        std::unique_ptr<vm::VirtualMachine> VM;
        {
          Span S(T, "vm.construct");
          VM = std::make_unique<vm::VirtualMachine>(P, std::move(Config));
        }
        {
          Span S(T, "vm.run");
          VM->run();
        }
        prof::DCGSnapshot DCG;
        {
          Span S(T, "vm.profile");
          DCG = VM->profile();
        }
        {
          Span S(T, "telemetry.metrics");
          readVMCounts(*VM, R.C);
        }
        if (K == CBS) {
          Span S(T, "profiling.accuracy");
          (void)prof::accuracy(DCG, Exhaustive);
        }
        R.Error = stateError(*VM, vm::RunState::Finished);
        std::vector<int64_t> Output = VM->output();
        {
          Span S(T, "vm.destroy");
          VM.reset();
        }
        int64_t Wall = H.stop(Start);

        R.C.Edges = DCG.numEdges();
        if (K == None)
          NoneOutput = Output;
        else if (R.Error.empty() &&
                 !sameOutput(Output, NoneOutput, Progs[I].Multithreaded))
          R.Error = "program output differs from the profiler-none run";
        if (K == Exhaustive_)
          Exhaustive = DCG;
        if (K == CBS && R.Error.empty() && !edgeSubset(DCG, Exhaustive))
          R.Error = "cbs profile has an edge the exhaustive profile lacks";
        R.Digest = format("cycles=%" PRIu64 " instr=%" PRIu64
                          " out=%016" PRIx64 " dcg=%016" PRIx64,
                          R.C.Cycles, R.C.Instructions, hashOutput(Output),
                          hashString(prof::ProfileCodec::encode(DCG)));
        H.finish(std::move(R), Wall);
      }
    }
  }

private:
  enum : size_t { None = 0, Exhaustive_ = 1, CBS = 2 };
  static constexpr const char *Names[3] = {"none", "exhaustive", "cbs"};

  uint64_t Seed;
  std::vector<BuiltProgram> Progs;
  std::vector<std::array<vm::VMConfig, 3>> Configs;
};

/// `adaptive`: the 14 programs at steady under cbs + AOS (new-Jikes
/// inliner, deopt policing, OSR, compile jobs 0) for a fixed window of
/// modelled cycles; each cold run's profile is committed to a fresh
/// repository and a warm run starts from it. The only workload that
/// reaches the aos and opt layers and the repository's disk write and read.
class AdaptiveWorkload final : public Workload {
public:
  AdaptiveWorkload(uint64_t Seed, std::filesystem::path TmpRoot)
      : Seed(Seed), TmpRoot(std::move(TmpRoot)) {}
  ~AdaptiveWorkload() override {
    std::error_code EC;
    std::filesystem::remove_all(TmpRoot, EC);
  }
  AdaptiveWorkload(const AdaptiveWorkload &) = delete;
  AdaptiveWorkload &operator=(const AdaptiveWorkload &) = delete;

  void setup(Harness &H) override {
    Progs = buildSuite(H.T, wl::InputSize::Steady, Seed, /*WithPhased=*/true);
    Configs.clear();
    Keys.clear();
    for (const BuiltProgram &B : Progs) {
      vm::VMConfig C = exp::jitOnlyConfig(B.P, vm::Personality::JikesRVM, Seed);
      C.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
      C.EnableOSR = true;
      C.MaxCycles = UINT64_MAX;
      Configs.push_back(std::move(C));
      Keys.push_back({B.Name, B.P.contentHash(), "jikes"});
    }
    std::error_code EC;
    std::filesystem::remove_all(TmpRoot, EC);
    if (!std::filesystem::create_directories(TmpRoot, EC) || EC)
      die("cannot create " + TmpRoot.string());
    Repo = std::make_unique<prof::ProfileRepository>(TmpRoot.string());
    AOS.Deopt.Enabled = true;
    AOS.CompileJobs = 0;
  }

  void pass(Harness &H, uint64_t) override {
    for (size_t I = 0; I != Progs.size() && !H.stopping(); ++I) {
      Run Cold = runOne(H, I, /*Warm=*/false, nullptr);
      runOne(H, I, /*Warm=*/true, &Cold);
    }
  }

private:
  struct Run {
    std::vector<int64_t> Output;
    uint64_t FirstInstall = 0;
  };

  Run runOne(Harness &H, size_t I, bool Warm, const Run *Cold) {
    Tracer &T = H.T;
    const bc::Program &P = Progs[I].P;
    OpResult R;
    R.Key = Progs[I].Name + (Warm ? "/warm" : "/cold");
    R.Profiler = "cbs";
    vm::VMConfig Config = Configs[I];
    if (T.on())
      timeCompiles(Config, T);
    aos::AOSConfig AC = AOS;
    TimedInlineOracle TimedOracle(Oracle, T);
    Run Result;

    int64_t Start = H.start();
    if (Warm) {
      prof::RepoLoadResult Load;
      {
        Span S(T, "profiling.repo_load");
        Load = Repo->load(Keys[I]);
      }
      if (Load.ok())
        AC.WarmStart.Profile =
            std::make_shared<const prof::DCGSnapshot>(Load.Entry->Graph);
      else
        R.Error = "repository load failed: " + Load.Diagnostic;
    }
    const opt::InlineOracle *PlanOracle = &Oracle;
    if (T.on())
      PlanOracle = &TimedOracle;
    aos::AdaptiveSystem System(PlanOracle, AC);
    TimedClient Client(System, T);
    std::unique_ptr<vm::VirtualMachine> VM;
    {
      Span S(T, "vm.construct");
      VM = std::make_unique<vm::VirtualMachine>(P, std::move(Config));
    }
    VM->setClient(T.on() ? static_cast<vm::VMClient *>(&Client) : &System);
    {
      Span S(T, "vm.run");
      VM->run(WindowCycles);
    }
    prof::DCGSnapshot DCG;
    {
      Span S(T, "vm.profile");
      DCG = VM->profile();
    }
    {
      Span S(T, "telemetry.metrics");
      readVMCounts(*VM, R.C);
    }
    std::string Bytes;
    {
      Span S(T, "profiling.encode");
      Bytes = prof::ProfileCodec::encode(DCG);
    }
    std::optional<prof::ProfileCodec::Decoded> Decoded;
    prof::RepoCommitResult Commit;
    if (!Warm) {
      {
        Span S(T, "profiling.decode");
        Decoded = prof::ProfileCodec::decode(Bytes);
      }
      std::error_code EC;
      std::filesystem::remove(Repo->pathFor(Progs[I].Name), EC);
      {
        Span S(T, "profiling.repo_commit");
        Commit = Repo->commit(Keys[I], DCG, VM->cycles());
      }
    }
    if (R.Error.empty())
      R.Error = stateError(*VM, vm::RunState::Running);
    Result.Output = VM->output();
    {
      Span S(T, "vm.destroy");
      VM.reset();
    }
    int64_t Wall = H.stop(Start);

    const aos::AOSStats &AS = System.stats();
    R.C.Edges = DCG.numEdges();
    R.C.Installs = AS.QueueInstalls;
    R.C.Plans = AS.PlansComputed;
    R.C.Deopts = System.deoptController()
                     ? System.deoptController()->stats().Deopts
                     : 0;
    R.C.FirstInstall = AS.FirstInstallCycle;
    Result.FirstInstall = AS.FirstInstallCycle;
    if (R.Error.empty() && !Warm) {
      if (!Decoded->ok() || !sameEdges(*Decoded->Graph, DCG))
        R.Error = "profile codec round trip changed the profile: " +
                  Decoded->Error;
      else if (!Commit.Committed)
        R.Error = "repository commit failed: " + Commit.Error;
    }
    if (R.Error.empty() && Warm) {
      if (!sameOutput(Result.Output, Cold->Output, Progs[I].Multithreaded))
        R.Error = "warm run output differs from the cold run";
      else if (Result.FirstInstall == 0 ||
               (Cold->FirstInstall != 0 &&
                Result.FirstInstall >= Cold->FirstInstall))
        R.Error = format("warm first install at cycle %" PRIu64
                         " is not earlier than cold %" PRIu64,
                         Result.FirstInstall, Cold->FirstInstall);
    }
    R.Digest = format("cycles=%" PRIu64 " instr=%" PRIu64 " out=%016" PRIx64
                      " dcg=%016" PRIx64 " installs=%" PRIu64
                      " deopts=%" PRIu64 " osr=%" PRIu64 " first=%" PRIu64,
                      R.C.Cycles, R.C.Instructions, hashOutput(Result.Output),
                      hashString(Bytes), R.C.Installs, R.C.Deopts,
                      R.C.OsrEntries, R.C.FirstInstall);
    H.finish(std::move(R), Wall);
    return Result;
  }

  /// The length of Figure 5's measure window (exp::SpeedupOptions::
  /// MeasureCycles), run from a cold start. Its warmup-plus-measure
  /// window doubles every op, and then a run's time budget holds too
  /// few ops for a p90 with ten samples beyond it.
  static constexpr uint64_t WindowCycles = 24'000'000;

  uint64_t Seed;
  std::filesystem::path TmpRoot;
  std::vector<BuiltProgram> Progs;
  std::vector<vm::VMConfig> Configs;
  std::vector<prof::RepoKey> Keys;
  std::unique_ptr<prof::ProfileRepository> Repo;
  opt::NewJikesOracle Oracle;
  aos::AOSConfig AOS;
};

/// `sweep`: a reduced Table 2a grid through exp::runSweep on a
/// ParallelRunner — the only workload that fans out across workers.
/// One op is one grid cell (the perfect run counts as a cell); one
/// pass is one runSweep call.
class SweepWorkload final : public Workload {
public:
  explicit SweepWorkload(uint64_t Seed)
      : Seed(Seed), Jobs(std::max(2u, std::thread::hardware_concurrency() / 2)) {}

  void setup(Harness &H) override {
    // runSweep builds its programs inside each task; set-up builds and
    // verifies them once so a bad input fails before timing starts.
    buildSuite(H.T, wl::InputSize::Small, Seed, /*WithPhased=*/false);
    Workloads.clear();
    for (const wl::WorkloadInfo &W : wl::suite())
      Workloads.push_back(&W);
  }

  void pass(Harness &H, uint64_t) override {
    OpResult R;
    R.Key = "table";
    tel::MetricRegistry Metrics;
    exp::ParallelConfig Par;
    Par.Jobs = Jobs;
    Par.Metrics = &Metrics;
    exp::SweepResult Sweep;
    int64_t Start = H.start();
    {
      Span S(H.T, "experiments.sweep");
      Sweep = exp::runSweep(vm::Personality::JikesRVM, Workloads,
                            wl::InputSize::Small, Strides, Samples,
                            /*Runs=*/1, Seed, Par);
    }
    int64_t Wall = H.stop(Start);

    uint64_t Expected = Workloads.size() * (Strides.size() * Samples.size() + 1);
    R.Ops = counterOf(Metrics, "exp.vm_runs");
    if (R.Ops != Expected) {
      R.Error = format("runSweep reported %" PRIu64 " VM runs, expected %" PRIu64,
                       R.Ops, Expected);
      R.Ops = Expected;
    }
    R.C.Samples = counterOf(Metrics, "exp.samples_taken");
    R.C.RunnerBusyUs = counterOf(Metrics, "runner.busy_us");
    R.C.RunnerWallUs = counterOf(Metrics, "runner.wall_us");
    std::string Table;
    for (const auto &Row : Sweep.Cells)
      for (const exp::AccuracyCell &C : Row)
        Table += format("%.17g/%.17g/%" PRIu64 ";", C.OverheadPct,
                        C.AccuracyPct, C.SamplesTaken);
    R.Digest = format("cells=%016" PRIx64 " samples=%" PRIu64,
                      hashString(Table), R.C.Samples);
    H.finish(std::move(R), Wall);
  }

  unsigned jobs() const override { return Jobs; }

private:
  uint64_t Seed;
  unsigned Jobs;
  std::vector<const wl::WorkloadInfo *> Workloads;
  /// The knee cell (Stride 3, Samples 16), the most-armed corner
  /// (Stride 1, Samples 8192, the largest Table 2a row) and their
  /// crossings. A small grid keeps a pass short, so a run holds many.
  const std::vector<uint32_t> Strides = {1, 3};
  const std::vector<uint32_t> Samples = {16, 8192};
};

/// `fuzz`: a seeded fuzz::runFuzz campaign over small generated
/// programs with all 8 builtin oracles, jobs 1. One op is one program
/// checked by every oracle — thousands of ~1 ms programs, where
/// generation, verification and VM construction dominate.
class FuzzWorkload final : public Workload {
public:
  static constexpr uint64_t OpsPerPass = 100;
  static constexpr unsigned WarmupPrograms = 10;

  FuzzWorkload(uint64_t Seed, Tracer &T) : Seed(Seed), T(T) {}

  void setup(Harness &H) override {
    Registry = fuzz::OracleRegistry::builtin();
    Timed = fuzz::OracleRegistry();
    for (const auto &O : Registry.all())
      Timed.add(std::make_unique<TimedFuzzOracle>(*O, T));
    // A campaign has no inputs to build, so set-up ends with the lazy
    // work of a first small campaign, on seeds no pass uses.
    fuzz::FuzzOptions O = options(0);
    O.Runs = WarmupPrograms;
    fuzz::FuzzReport Report = fuzz::runFuzz(O, Registry);
    if (!Report.clean())
      H.failOutsideOp("set-up campaign", violation(Report));
  }

  void pass(Harness &H, uint64_t Block) override {
    for (uint64_t I = 0; I != OpsPerPass && !H.stopping(); ++I) {
      fuzz::FuzzOptions O = options(WarmupPrograms + Block * OpsPerPass + I);
      OpResult R;
      R.Key = "program";
      int64_t Start = H.start();
      fuzz::FuzzReport Report;
      {
        Span S(H.T, "fuzz.campaign");
        Report = fuzz::runFuzz(O, H.T.on() ? Timed : Registry);
      }
      int64_t Wall = H.stop(Start);
      R.C.OracleChecks = Report.OracleChecks;
      if (!Report.clean())
        R.Error = violation(Report);
      R.Digest = format("checks=%u", Report.OracleChecks);
      H.finish(std::move(R), Wall);
    }
  }

private:
  static std::string violation(const fuzz::FuzzReport &Report) {
    const fuzz::Violation &V = Report.Violations.front();
    return format("seed %" PRIu64 ": oracle %s: %s", V.Seed,
                  V.OracleId.c_str(), V.Message.c_str());
  }

  /// One program, seed \p Index of this benchmark seed's campaign.
  fuzz::FuzzOptions options(uint64_t Index) const {
    fuzz::FuzzOptions O;
    // Disjoint program seeds per benchmark seed.
    O.SeedBase = Seed * 1'000'000'007ull + Index;
    O.Runs = 1;
    O.Jobs = 1;
    // A violation is reported as a failed op; reducing it would only
    // spend the run's time budget.
    O.Reduce = false;
    return O;
  }

  uint64_t Seed;
  Tracer &T;
  fuzz::OracleRegistry Registry;
  fuzz::OracleRegistry Timed;
};

//===----------------------------------------------------------------------===//
// Reference digests
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// reference.json: {"workloads": {<workload>: {<seed>: {<key>: <digest>}}}}.
/// Returns false when the file has no entry for this workload and seed.
bool loadReference(const Options &O, DigestMap &Out) {
  json::JsonParseResult R = json::parseJson(readFile(O.Reference));
  if (!R.ok())
    die(O.Reference + ": " + R.Error);
  const json::JsonValue *W = R.Value->find("workloads");
  const json::JsonValue *ByWorkload = W ? W->find(O.Workload) : nullptr;
  const json::JsonValue *BySeed =
      ByWorkload ? ByWorkload->find(std::to_string(O.Seed)) : nullptr;
  if (!BySeed)
    return false;
  if (!BySeed->isObject())
    die(O.Reference + ": malformed entry for " + O.Workload);
  for (const auto &[Key, V] : BySeed->Members) {
    if (!V.isString())
      die(O.Reference + ": digest of " + Key + " is not a string");
    Out[Key] = V.Str;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  json::JsonWriter W;
  W.beginObject();
  W.key("correct");
  W.value(Correct);
  W.key("attempted");
  W.value(Attempted);
  W.key("failed");
  W.value(Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.take();
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  auto Need = [&](int &I) -> std::string {
    if (I + 1 >= Argc)
      die(std::string("missing value for ") + Argv[I]);
    return Argv[++I];
  };
  auto Number = [](const std::string &Flag, const std::string &S) {
    char *End = nullptr;
    double V = std::strtod(S.c_str(), &End);
    if (S.empty() || *End || !std::isfinite(V) || V < 0)
      die("bad value for " + Flag + ": " + S);
    return V;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--workload")
      O.Workload = Need(I);
    else if (A == "--seed") {
      std::string V = Need(I);
      char *End = nullptr;
      errno = 0;
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End || errno || V[0] == '-')
        die("bad value for --seed: " + V);
    }
    else if (A == "--seconds")
      O.Seconds = Number(A, Need(I));
    else if (A == "--trace") {
      std::string V = Need(I);
      if (V != "0" && V != "1")
        die("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--reference")
      O.Reference = Need(I);
    else if (A == "--record")
      O.Record = Need(I);
    else if (A == "--trace-out")
      O.TraceOut = Need(I);
    else if (A == "--corrupt-reference")
      O.CorruptReference = true;
    else if (A == "--commit")
      O.Commit = Need(I);
    else if (A == "--source-digest")
      O.SourceDigest = Need(I);
    else
      die("unknown argument " + A);
  }
  if (O.Workload.empty())
    die("--workload is required");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  int64_t ProcessStart = nowNs();
  Options Opts = parseArgs(Argc, Argv);
  Harness H;

  std::unique_ptr<Workload> W;
  if (Opts.Workload == "suite") {
    W = std::make_unique<SuiteWorkload>(Opts.Seed);
  } else if (Opts.Workload == "adaptive") {
    W = std::make_unique<AdaptiveWorkload>(
        Opts.Seed, std::filesystem::path(".bench_build") / "hostbench" / "tmp" /
                       ("repo-" + std::to_string(getpid())));
  } else if (Opts.Workload == "sweep") {
    W = std::make_unique<SweepWorkload>(Opts.Seed);
  } else if (Opts.Workload == "fuzz") {
    W = std::make_unique<FuzzWorkload>(Opts.Seed, H.T);
  } else {
    die("unknown workload '" + Opts.Workload +
        "' (suite, sweep, adaptive, fuzz)");
  }

  bool Recording = !Opts.Record.empty();
  if (!Opts.Reference.empty() && !Recording) {
    DigestMap Ref;
    if (loadReference(Opts, Ref)) {
      if (Opts.CorruptReference) {
        // Self-check: one deliberately wrong digest must surface as
        // failed ops, never as a crash or a silent pass.
        Ref.begin()->second += "-corrupted";
      }
      H.setReference(std::move(Ref));
    } else if (Opts.CorruptReference) {
      die("--corrupt-reference needs a reference entry for this seed");
    }
  }

  // Set-up is repeated and its median reported: a few times before the
  // warm-up, which the traced run traces as set-up ops, then again
  // between passes at most once a second, so the median samples the
  // host's state over the whole run rather than over one instant.
  constexpr int InitialSetups = 3;
  constexpr double SetupEveryS = 1;
  constexpr double WarmupS = 2;
  constexpr uint64_t WarmupBlock = 1'000'000'000;
  std::vector<double> SetupS;
  int64_t LastSetupNs = 0;
  auto SetUp = [&] {
    int64_t Start = nowNs();
    if (H.T.on())
      H.T.beginOp(UINT64_MAX - SetupS.size(), "setup");
    W->setup(H);
    if (H.T.on())
      H.T.end();
    LastSetupNs = nowNs();
    SetupS.push_back(static_cast<double>(LastSetupNs - Start) / 1e9);
    std::fprintf(stderr, "hostbench: set-up %zu: %.6f s\n", SetupS.size() - 1,
                 SetupS.back());
  };
  H.T.setOn(Opts.Trace);
  for (int I = 0; I != InitialSetups; ++I)
    SetUp();
  auto SetupSelf = H.T.takeSelf();
  H.T.setOn(false);

  // Warm-up: ops run (and are checked) for a while before timing, so the
  // first timed ops do not pay for cold caches, heap growth and the
  // host's clock ramp. Inputs come from a block no timed pass uses.
  if (!Recording && Opts.Seconds >= 1) {
    H.WarmupEndNs = nowNs() + static_cast<int64_t>(WarmupS * 1e9);
    while (!H.stopping())
      W->pass(H, WarmupBlock);
    H.WarmupEndNs = 0;
  }

  // Closed loop: passes until the time is spent and, untraced, at least
  // MinOps latency samples exist (so at least 10 lie beyond p90). A
  // traced run alternates untraced and traced passes over the same
  // inputs; each pair gives one tracing-overhead ratio.
  constexpr uint64_t MinOps = 100;
  const double HardCapS = std::max(Opts.Seconds * 4, 20.0);
  std::vector<double> PassRates;
  std::vector<double> OverheadRatios;
  double PartnerS = 0;
  int64_t RunStart = nowNs();
  Counts FirstPass;
  uint64_t UntracedOps = 0;
  for (uint64_t Pass = 0;; ++Pass) {
    // Pairs alternate which side runs first, so a drift over the run
    // (caches, clock speed) does not bias the overhead ratio.
    bool Traced = Opts.Trace && (Pass % 2 == 1) == (Pass / 2 % 2 == 0);
    H.T.setOn(Traced);
    H.PassCompleted = 0;
    H.PassCounts = Counts();
    uint64_t AttemptedBefore = H.Attempted;
    int64_t PassStart = nowNs();
    W->pass(H, Opts.Trace ? Pass / 2 : Pass);
    double PassS = static_cast<double>(nowNs() - PassStart) / 1e9;
    std::fprintf(stderr, "hostbench: pass %" PRIu64 "%s: %" PRIu64
                         " ops in %.3f s\n",
                 Pass, Traced ? " (traced)" : "", H.Attempted - AttemptedBefore,
                 PassS);
    if (Pass == 0)
      FirstPass = H.PassCounts;
    if (Opts.Trace && Pass % 2 == 1)
      OverheadRatios.push_back(Traced ? PassS / PartnerS : PartnerS / PassS);
    PartnerS = PassS;
    if (!Traced) {
      UntracedOps += H.Attempted - AttemptedBefore;
      PassRates.push_back(static_cast<double>(H.PassCompleted) / PassS);
    }
    if (Recording)
      break;
    if (nowNs() - LastSetupNs >= static_cast<int64_t>(SetupEveryS * 1e9)) {
      H.T.setOn(false);
      SetUp();
    }
    double Elapsed = static_cast<double>(nowNs() - RunStart) / 1e9;
    bool PairDone = !Opts.Trace || Pass % 2 == 1;
    if (PairDone && Elapsed >= Opts.Seconds &&
        (Opts.Trace || UntracedOps >= MinOps || Opts.Seconds < 1))
      break;
    if (PairDone && Elapsed >= HardCapS)
      break;
  }
  H.T.setOn(false);
  auto Self = H.T.takeSelf();

  if (Recording) {
    json::JsonWriter JW;
    JW.beginObject();
    for (const auto &[Key, Digest] : H.Seen) {
      JW.key(Key);
      JW.value(Digest);
    }
    JW.endObject();
    std::ofstream Out(Opts.Record);
    Out << JW.take() << "\n";
    if (!Out)
      die("cannot write " + Opts.Record);
  }

  // Provenance and modelled totals (one pass), echoed so a row whose
  // configuration silently changed shows up.
  json::JsonWriter Info;
  Info.beginObject();
  Info.key("workload");
  Info.value(Opts.Workload);
  Info.key("seed");
  Info.value(Opts.Seed);
  Info.key("trace");
  Info.value(Opts.Trace);
  Info.key("nproc");
  Info.value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Info.key("jobs");
  Info.value(static_cast<uint64_t>(W->jobs()));
  Info.key("compiler");
  Info.value(HOSTBENCH_CXX_COMPILER);
  Info.key("build_type");
  Info.value(HOSTBENCH_BUILD_TYPE " (assertions on)");
  Info.key("commit");
  Info.value(Opts.Commit);
  Info.key("source_digest");
  Info.value(Opts.SourceDigest);
  Info.key("reference");
  Info.value(H.HaveReference ? "checked" : "none for this seed: "
                                           "determinism across passes only");
  Info.key("modelled_per_pass");
  Info.beginObject();
  Info.key("cycles");
  Info.value(FirstPass.Cycles);
  Info.key("instructions");
  Info.value(FirstPass.Instructions);
  Info.key("calls");
  Info.value(FirstPass.Calls);
  Info.key("oracle_checks");
  Info.value(FirstPass.OracleChecks);
  Info.endObject();
  Info.key("samples");
  Info.beginObject();
  Info.key("op_latency");
  Info.value(static_cast<uint64_t>(H.LatencyMs.size() +
                                   H.BatchLatencyMs.size()));
  Info.key("passes");
  Info.value(static_cast<uint64_t>(PassRates.size() + OverheadRatios.size()));
  Info.key("setups");
  Info.value(static_cast<uint64_t>(SetupS.size()));
  Info.endObject();
  if (Opts.Trace) {
    Info.key("tracing");
    Info.beginObject();
    Info.key("ops");
    Info.value(H.TracedOps);
    Info.key("tolerance_pct");
    Info.value(Harness::TolerancePct);
    Info.key("ops_over_tolerance");
    Info.value(H.OpsOverTolerance);
    Info.key("spans_kept");
    Info.value(static_cast<uint64_t>(H.T.keptSpans()));
    Info.endObject();
    if (H.OpsOverTolerance)
      std::fprintf(stderr,
                   "hostbench: %" PRIu64 " traced ops have more than %.0f%% "
                   "of their wall time outside every layer span\n",
                   H.OpsOverTolerance, Harness::TolerancePct);
  }
  Info.key("process_s");
  Info.value(static_cast<double>(nowNs() - ProcessStart) / 1e9);
  Info.endObject();
  std::string InfoJson = Info.take();

  std::vector<Metric> M;
  if (!Opts.Trace) {
    // A sweep op (grid cell) is not observable from outside runSweep,
    // so its latency is each pass's wall time per cell.
    const std::vector<double> &Lat =
        H.LatencyMs.empty() ? H.BatchLatencyMs : H.LatencyMs;
    M.push_back({"setup_s", median(SetupS), "s"});
    M.push_back({"ops_per_s", median(PassRates), "1/s"});
    M.push_back({"op_p50_ms", quantile(Lat, 0.5), "ms"});
    M.push_back({"op_p90_ms", quantile(Lat, 0.9), "ms"});
    M.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  } else {
    double Ops = static_cast<double>(std::max<uint64_t>(H.TracedOps, 1));
    auto Get = [](const auto &Map, std::string_view Layer) -> int64_t {
      auto It = Map.find(Layer);
      return It == Map.end() ? 0 : It->second;
    };
    auto PerOpMs = [&](std::string_view Layer) {
      return static_cast<double>(Get(Self, Layer)) / 1e6 / Ops;
    };
    auto PerSetupMs = [&](std::string_view Layer) {
      return static_cast<double>(Get(SetupSelf, Layer)) / 1e6 / InitialSetups;
    };
    auto NsPerInstr = [&](const std::string &Prof) {
      uint64_t I = H.InstrByProfiler[Prof];
      return I ? static_cast<double>(H.RunNsByProfiler[Prof]) /
                     static_cast<double>(I)
               : 0.0;
    };
    int64_t RunNs = 0;
    uint64_t Instr = 0;
    for (const auto &[P, Ns] : H.RunNsByProfiler) {
      RunNs += Ns;
      Instr += H.InstrByProfiler[P];
    }
    auto OverheadPct = [&](const std::string &Prof) {
      double Base = NsPerInstr("none"), V = NsPerInstr(Prof);
      return Base > 0 && V > 0 ? 100.0 * (V / Base - 1.0) : 0.0;
    };
    double AosNs = static_cast<double>(
        Get(Self, "aos.startup") + Get(Self, "aos.tick") +
        Get(Self, "aos.yieldpoint") + Get(Self, "opt.plan"));
    double VmRunInclusive =
        static_cast<double>(Get(Self, "vm.run") + Get(Self, "opt.jit_compile")) +
        AosNs;
    double Passes =
        static_cast<double>(std::max<size_t>(OverheadRatios.size(), 1));
    const Counts &C = H.TracedCounts;
    auto PerPass = [&](uint64_t V) {
      return static_cast<double>(V) / Passes;
    };

    M.push_back({"workloads.build_ms", PerSetupMs("workloads.build"), "ms"});
    M.push_back({"bytecode.verify_ms", PerSetupMs("bytecode.verify"), "ms"});
    M.push_back({"vm.construct_ms", PerOpMs("vm.construct"), "ms"});
    M.push_back({"vm.run_ms", PerOpMs("vm.run"), "ms"});
    M.push_back({"vm.profile_ms", PerOpMs("vm.profile"), "ms"});
    M.push_back({"vm.destroy_ms", PerOpMs("vm.destroy"), "ms"});
    M.push_back({"vm.ns_per_instr",
                 Instr ? static_cast<double>(RunNs) / static_cast<double>(Instr)
                       : 0.0,
                 "ns"});
    M.push_back({"vm.ns_per_instr.none", NsPerInstr("none"), "ns"});
    M.push_back({"vm.ns_per_instr.cbs", NsPerInstr("cbs"), "ns"});
    M.push_back({"vm.ns_per_instr.exhaustive", NsPerInstr("exhaustive"), "ns"});
    M.push_back({"vm.minstr_per_s",
                 H.UntracedOpNs ? static_cast<double>(H.UntracedInstr) * 1e3 /
                                      static_cast<double>(H.UntracedOpNs)
                                : 0.0,
                 "Minstr/s"});
    M.push_back({"opt.jit_compile_ms", PerOpMs("opt.jit_compile"), "ms"});
    M.push_back({"opt.plan_ms", PerOpMs("opt.plan"), "ms"});
    M.push_back({"profiling.cbs_overhead_pct", OverheadPct("cbs"), "%"});
    M.push_back({"profiling.exhaustive_overhead_pct", OverheadPct("exhaustive"),
                 "%"});
    M.push_back({"profiling.accuracy_ms", PerOpMs("profiling.accuracy"), "ms"});
    M.push_back({"profiling.encode_ms", PerOpMs("profiling.encode"), "ms"});
    M.push_back({"profiling.decode_ms", PerOpMs("profiling.decode"), "ms"});
    M.push_back({"profiling.repo_commit_ms", PerOpMs("profiling.repo_commit"),
                 "ms"});
    M.push_back({"profiling.repo_load_ms", PerOpMs("profiling.repo_load"),
                 "ms"});
    M.push_back({"aos.startup_ms", PerOpMs("aos.startup"), "ms"});
    M.push_back({"aos.tick_ms", PerOpMs("aos.tick"), "ms"});
    M.push_back({"aos.yieldpoint_ms", PerOpMs("aos.yieldpoint"), "ms"});
    M.push_back({"aos.busy_frac",
                 VmRunInclusive > 0 ? AosNs / VmRunInclusive : 0.0, "ratio"});
    M.push_back({"experiments.busy_s", PerPass(C.RunnerBusyUs) / 1e6, "s"});
    M.push_back({"experiments.wall_s", PerPass(C.RunnerWallUs) / 1e6, "s"});
    M.push_back({"experiments.speedup",
                 C.RunnerWallUs ? static_cast<double>(C.RunnerBusyUs) /
                                      static_cast<double>(C.RunnerWallUs)
                                : 0.0,
                 "ratio"});
    M.push_back({"fuzz.generate_ms", PerOpMs("fuzz.campaign"), "ms"});
    fuzz::OracleRegistry Builtin = fuzz::OracleRegistry::builtin();
    for (const auto &O : Builtin.all()) {
      std::string Layer = std::string("fuzz.oracle.") + O->id();
      M.push_back({Layer + "_ms", PerOpMs(Layer), "ms"});
    }
    M.push_back({"telemetry.metrics_ms", PerOpMs("telemetry.metrics"), "ms"});
    M.push_back({"vm.instructions", PerPass(C.Instructions), "count"});
    M.push_back({"vm.calls", PerPass(C.Calls), "count"});
    M.push_back({"vm.yieldpoints_taken", PerPass(C.Yieldpoints), "count"});
    M.push_back({"vm.samples_taken", PerPass(C.Samples), "count"});
    M.push_back({"dcg.edges", PerPass(C.Edges), "count"});
    M.push_back({"dcg.flushes", PerPass(C.Flushes), "count"});
    M.push_back({"aos.installs", PerPass(C.Installs), "count"});
    M.push_back({"aos.plans", PerPass(C.Plans), "count"});
    M.push_back({"aos.deopts", PerPass(C.Deopts), "count"});
    M.push_back({"vm.osr_entries", PerPass(C.OsrEntries), "count"});
    M.push_back({"aos.first_install_cycle", PerPass(C.FirstInstall), "cycles"});
    M.push_back({"fuzz.oracle_checks", PerPass(C.OracleChecks), "count"});
    M.push_back({"trace.op_wall_ms",
                 static_cast<double>(H.TracedOpNs) / 1e6 / Ops, "ms"});
    M.push_back({"trace.unattributed_pct",
                 H.TracedOpNs ? 100.0 * static_cast<double>(H.UnattributedNs) /
                                    static_cast<double>(H.TracedOpNs)
                              : 0.0,
                 "%"});
    M.push_back({"trace.overhead_pct",
                 100.0 * (median(OverheadRatios) - 1.0), "%"});

    if (!Opts.TraceOut.empty()) {
      std::ofstream Out(Opts.TraceOut);
      Out << H.T.chromeJson(InfoJson) << "\n";
      if (!Out)
        die("cannot write " + Opts.TraceOut);
    }
  }

  std::printf("hostbench-info %s\n", InfoJson.c_str());
  std::printf("%s\n", resultJson(H.Failed == 0, H.Attempted, H.Failed, M)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
