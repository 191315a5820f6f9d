//===- campaign_bench.cpp - One DART campaign benchmark -------------------===//
//
// Part of the DART reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the paper's §4 experiments end to end at default DartOptions, and
/// splits the time by layer in a separate traced pass. See README.md in
/// this directory for the workloads, the metrics and how to run it.
///
///   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
///                  [--trace-file PATH]
///
/// The process runs one workload, as a closed loop of whole passes (one
/// campaign at a time) for up to S seconds. Every session's
/// outcome is checked against a reference. The last line of standard
/// output is one JSON object: {"correct", "attempted", "failed",
/// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
/// --trace 1 the per-layer ones.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PointsTo.h"
#include "analysis/StaticSummary.h"
#include "analysis/Verify.h"
#include "core/Dart.h"
#include "ir/Lowering.h"
#include "jit/Jit.h"
#include "parser/Parser.h"
#include "sema/Sema.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace dart;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// User plus system CPU time of the whole process (all threads).
double cpuSeconds() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// High-water resident set of the process, in MiB, from VmHWM in
/// /proc/self/status. Not ru_maxrss: Linux carries that across exec, so
/// it would include the launching interpreter's peak. Each workload runs
/// in its own process, so this is the workload's own peak.
double peakRssMib() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

/// Linear-interpolation quantile (Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// SplitMix64 finalizer: derives independent per-session seeds from the
/// workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Kind {
  Audit,    ///< §4.3: every defined miniSIP function, 1000 runs each
  Verify,   ///< `dart verify`: triage, full dfs campaign, evidence merge
  Random,   ///< §4.1 random baseline
  Parallel, ///< the Verify search on the frontier engine
};

struct Workload {
  std::string Name;
  Kind K = Kind::Audit;
  std::string Source;
  /// Session options shared by every toplevel; ToplevelName and Seed are
  /// filled in per session.
  DartOptions Base;
  std::string Toplevel; ///< empty: every defined function (the audit)
};

bool makeWorkload(const std::string &Name, Workload &W) {
  W.Name = Name;
  if (Name == "minisip_audit") {
    W.K = Kind::Audit;
    W.Source = workloads::miniSipSource();
    W.Base.MaxRuns = 1000;             // §4.3's per-function budget
    W.Base.Interp.MaxSteps = 1u << 18; // as `dart audit` sets it
    return true;
  }
  if (Name == "ns_verify_d3" || Name == "ns_dy_d3_jobs2") {
    workloads::NsConfig Config;
    Config.DolevYao = true;
    W.Source = workloads::needhamSchroederSource(Config);
    W.Toplevel = "ns_step";
    W.Base.Depth = 3;
    W.Base.MaxRuns = 4000000;
    if (Name == "ns_verify_d3") {
      // The dynamic leg of `dart verify`.
      W.K = Kind::Verify;
      W.Base.StopAtFirstError = false;
      W.Base.CaptureWitnesses = true;
    } else {
      W.K = Kind::Parallel;
      W.Base.Jobs = 2;
    }
    return true;
  }
  if (Name == "ac_random_d64") {
    W.K = Kind::Random;
    W.Source = workloads::acControllerSource();
    W.Toplevel = "ac_controller";
    W.Base.Depth = 64;
    W.Base.MaxRuns = 200000;
    W.Base.RandomOnly = true;
    return true;
  }
  return false;
}

std::vector<DartOptions> sessionsFor(const Workload &W, const Dart &D,
                                     uint64_t Seed) {
  std::vector<DartOptions> Sessions;
  if (W.K == Kind::Audit) {
    // One seed per function, derived from the workload seed. With one
    // seed for all 96 functions the crash count is bimodal in the seed
    // (57 or 32 crashes), and so is the pass time.
    std::vector<std::string> Fns = D.definedFunctions();
    for (size_t I = 0; I < Fns.size(); ++I) {
      DartOptions O = W.Base;
      O.ToplevelName = Fns[I];
      O.Seed = mixSeed(Seed, I);
      Sessions.push_back(std::move(O));
    }
  } else {
    DartOptions O = W.Base;
    O.ToplevelName = W.Toplevel;
    O.Seed = Seed;
    Sessions.push_back(std::move(O));
  }
  return Sessions;
}

//===----------------------------------------------------------------------===//
// Correctness reference
//===----------------------------------------------------------------------===//

/// A coverage bitmap as hex, four bits per digit, low bit first.
std::string coverageHex(const std::vector<bool> &C) {
  std::string S;
  for (size_t I = 0; I < C.size(); I += 4) {
    unsigned Nib = 0;
    for (size_t B = 0; B < 4 && I + B < C.size(); ++B)
      Nib |= unsigned(C[I + B]) << B;
    S += "0123456789abcdef"[Nib];
  }
  return S;
}

/// The observable outcome of one session: what the search must reproduce
/// whatever the performance levers do.
struct Outcome {
  unsigned Runs = 0;
  bool BugFound = false;
  bool Complete = false;
  std::vector<std::pair<uint32_t, uint32_t>> BugLocs;
  std::string Coverage; ///< coverageHex of the bitmap

  bool operator==(const Outcome &O) const = default;
};

/// \p NumDirs is the module's branch-direction count: the parallel engine
/// pads its coverage bitmap to whole 64-bit words, so bits past it are
/// dropped when they are all clear.
Outcome outcomeOf(const DartReport &R, size_t NumDirs) {
  Outcome O;
  O.Runs = R.Runs;
  O.BugFound = R.BugFound;
  O.Complete = R.CompleteExploration;
  for (const BugInfo &B : R.Bugs)
    O.BugLocs.emplace_back(B.Error.Loc.Line, B.Error.Loc.Column);
  std::vector<bool> Bits = R.Coverage;
  if (Bits.size() > NumDirs &&
      std::none_of(Bits.begin() + NumDirs, Bits.end(),
                   [](bool B) { return B; }))
    Bits.resize(NumDirs);
  O.Coverage = coverageHex(Bits);
  return O;
}

/// The Dolev-Yao depth-3 search explores every feasible path, so its
/// outcome does not depend on the seed: this many runs, no assertion
/// failure, complete exploration, and this coverage (bit
/// 2*site+direction, from a sequential campaign).
constexpr unsigned kNsDyD3Runs = 109171;
const char *const kNsDyD3Coverage = "fbeffff7ff76ff10";

/// The reference outcome of each session. Audit and random sessions are
/// replayed once with every performance lever off (the plain interpreter
/// session); the Needham-Schroeder searches are seed-independent and
/// pinned.
std::vector<Outcome> referenceFor(const Workload &W, const Dart &D,
                                  const std::vector<DartOptions> &Sessions) {
  const size_t NumDirs = 2 * size_t(D.module().numBranchSites());
  std::vector<Outcome> Ref;
  for (const DartOptions &S : Sessions) {
    if (W.K == Kind::Verify || W.K == Kind::Parallel) {
      Outcome O;
      O.Runs = kNsDyD3Runs;
      O.Complete = true;
      O.Coverage = kNsDyD3Coverage;
      Ref.push_back(std::move(O));
      continue;
    }
    DartOptions Off = S;
    Off.StaticPrune = false;
    Off.Snapshots = false;
    Off.Jit = false;
    Off.Verify = false;
    Ref.push_back(outcomeOf(D.run(Off), NumDirs));
  }
  return Ref;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory spans, written as Chrome trace-event JSON at the end.
class Trace {
public:
  struct Span {
    std::string Name;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0: root
    uint64_t Session = 0;
    double StartUs = 0.0;
    double DurUs = 0.0;
    std::vector<std::pair<std::string, double>> Args;
  };

  uint64_t open(std::string Name, uint64_t Session, uint64_t Parent) {
    Span S;
    S.Name = std::move(Name);
    S.Id = Spans.size() + 1;
    S.Parent = Parent;
    S.Session = Session;
    S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                    .count();
    Spans.push_back(std::move(S));
    return Spans.back().Id;
  }
  /// Ends span \p Id; returns its duration in ms.
  double close(uint64_t Id) {
    Span &S = Spans[Id - 1];
    S.DurUs = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                  .count() -
              S.StartUs;
    return S.DurUs / 1e3;
  }
  void arg(uint64_t Id, std::string Key, double Value) {
    Spans[Id - 1].Args.emplace_back(std::move(Key), Value);
  }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                   ", \"session\": %" PRIu64,
                   S.Name.c_str(), S.StartUs, S.DurUs, S.Id, S.Parent,
                   S.Session);
      for (const auto &[K, V] : S.Args)
        std::fprintf(F, ", \"%s\": %.10g", K.c_str(), V);
      std::fprintf(F, "}}%s\n", I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(F) == 0;
  }

private:
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
};

/// Times \p Fn; in a traced pass also records it as a span.
template <typename F>
double timed(Trace *T, const char *Name, uint64_t Session, uint64_t Parent,
             F &&Fn) {
  if (T) {
    uint64_t Id = T->open(Name, Session, Parent);
    Fn();
    return T->close(Id);
  }
  Clock::time_point T0 = Clock::now();
  Fn();
  return msSince(T0);
}

//===----------------------------------------------------------------------===//
// Front end (setup)
//===----------------------------------------------------------------------===//

/// Times Dart::fromSource for about \p BudgetS seconds, at least
/// \p MinReps times, appending one sample (in s) per call. Returns the
/// last program compiled, or null if the source does not compile.
std::unique_ptr<Dart> timeSetup(const std::string &Source, double BudgetS,
                                unsigned MinReps,
                                std::vector<double> &Samples) {
  std::unique_ptr<Dart> D;
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < MinReps || msSince(Start) < BudgetS * 1e3; ++I) {
    std::string Errors;
    Clock::time_point T0 = Clock::now();
    D = Dart::fromSource(Source, &Errors);
    Samples.push_back(msSince(T0) / 1e3);
    if (!D) {
      std::fprintf(stderr, "error: workload does not compile:\n%s\n",
                   Errors.c_str());
      return nullptr;
    }
  }
  return D;
}

/// The traced split of the front end: the three stages Dart::fromSource
/// runs, each timed on its own, median of \p Reps repetitions. Returns
/// false if the source does not compile.
bool traceSetup(const std::string &Source, unsigned Reps, Trace &T,
                std::map<std::string, double> &Layer) {
  std::vector<double> Parse, Check, Lower;
  double Instrs = 0;
  for (unsigned I = 0; I < Reps; ++I) {
    DiagnosticsEngine Diags;
    uint64_t Root = T.open("setup", 0, 0);
    std::unique_ptr<TranslationUnit> TU;
    Parse.push_back(timed(&T, "parser.parse", 0, Root, [&] {
      TU = Parser::parse(Source, Diags);
    }));
    bool Checked = false;
    Check.push_back(timed(&T, "sema.check", 0, Root, [&] {
      Sema S(*TU, Diags);
      Checked = S.run();
    }));
    LoweredProgram P;
    Lower.push_back(timed(&T, "ir.lower", 0, Root, [&] {
      P = lowerToIR(*TU, Diags);
    }));
    T.close(Root);
    if (!Checked || Diags.hasErrors())
      return false;
    Instrs = 0;
    for (const auto &F : P.Module->functions())
      Instrs += double(F->Instrs.size());
  }
  Layer["parser.parse_ms"] = median(Parse);
  Layer["sema.check_ms"] = median(Check);
  Layer["ir.lower_ms"] = median(Lower);
  Layer["ir.instrs"] = Instrs;
  return true;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// Per-layer sums over one pass's sessions.
struct LayerSums {
  double CallGraphMs = 0, PointsToMs = 0, SummaryMs = 0, ProveMs = 0,
         VerifierMs = 0, JitBuildMs = 0, SessionMs = 0;
  uint64_t Runs = 0, Restarts = 0, ForcingMismatches = 0, DirsProved = 0,
           SolverCalls = 0;
  SolverStats Solver;
  uint64_t ArenaInterns = 0, ArenaHits = 0;
  SnapshotStats Snapshot;
  uint64_t NativeInstrs = 0, Deopts = 0, CodeBytes = 0;

  void add(const DartReport &R) {
    Runs += R.Runs;
    Restarts += R.Restarts;
    ForcingMismatches += R.ForcingMismatches;
    DirsProved += R.DirsProvedInfeasible;
    SolverCalls += R.SolverCalls;
    Solver.merge(R.Solver);
    ArenaInterns += R.Arena.Interns;
    ArenaHits += R.Arena.Hits;
    Snapshot.merge(R.Snapshot);
    NativeInstrs += R.Jit.NativeInstrs;
    Deopts += R.Jit.Deopts;
    CodeBytes += R.Jit.CodeBytes;
  }
};

struct PassResult {
  double WallS = 0, CpuS = 0;
  uint64_t Runs = 0;
  std::vector<double> SessionMs;
  unsigned Sessions = 0, Failed = 0, Crashes = 0;
  LayerSums Layer;
};

/// The counters of one report, attached to its span.
void reportArgs(Trace &T, uint64_t Id, const DartReport &R) {
  T.arg(Id, "runs", R.Runs);
  T.arg(Id, "restarts", R.Restarts);
  T.arg(Id, "solver.queries", double(R.SolverCalls));
  T.arg(Id, "solver.session_solves", double(R.Solver.SessionSolves));
  T.arg(Id, "solver.session_pushes", double(R.Solver.SessionPushes));
  T.arg(Id, "solver.unknown", double(R.Solver.Unknown));
  T.arg(Id, "concolic.checkpoints", double(R.Snapshot.CheckpointsCaptured));
  T.arg(Id, "concolic.runs_resumed", double(R.Snapshot.RunsResumed));
  T.arg(Id, "interp.instrs_executed",
        double(R.Snapshot.InstructionsExecuted));
  T.arg(Id, "jit.native_instrs", double(R.Jit.NativeInstrs));
}

/// `dart verify`'s verdict counts on the Dolev-Yao depth-3 search, which
/// explores every path (so they do not depend on the seed).
struct VerdictCounts {
  unsigned Proved = 0, Bug = 0, Unknown = 0;
  bool operator==(const VerdictCounts &O) const = default;
};
constexpr VerdictCounts kNsDyD3Verdicts = {0, 51, 13};

/// One pass: every session of the workload, one at a time. With a trace,
/// the standalone analysis and JIT calls of each session are also made
/// and spanned (after the session, so the session sees the same caches as
/// in an untraced pass).
PassResult runPass(const Workload &W, const Dart &D,
                   const std::vector<DartOptions> &Sessions,
                   const std::vector<Outcome> &Ref, Trace *T,
                   uint64_t &NextSession) {
  PassResult P;
  const IRModule &M = D.module();
  uint64_t PassSpan = T ? T->open("pass", 0, 0) : 0;
  double Cpu0 = cpuSeconds();
  Clock::time_point Wall0 = Clock::now();
  for (size_t I = 0; I < Sessions.size(); ++I) {
    const DartOptions &Opts = Sessions[I];
    const std::string &Top = Opts.ToplevelName;
    const bool GlobalsAtInit = Opts.Depth == 1;
    uint64_t Sid = NextSession++;
    uint64_t SessSpan = T ? T->open("session", Sid, PassSpan) : 0;
    if (T)
      T->arg(SessSpan, "index", double(I));

    // `dart verify`'s static leg. The verify workload runs it ahead of
    // its campaign; a traced pass of the others runs it as standalone
    // calls.
    std::optional<StaticSummary> Sum;
    std::optional<BranchProofs> Proofs;
    std::optional<VerifyResult> VR;
    auto StaticLeg = [&] {
      P.Layer.SummaryMs += timed(T, "analysis.summary", Sid, SessSpan,
                                 [&] { Sum = computeStaticSummary(M, Top); });
      P.Layer.ProveMs += timed(T, "analysis.prove", Sid, SessSpan, [&] {
        Proofs = proveBranchDirections(M, Top, *Sum, GlobalsAtInit);
      });
      P.Layer.VerifierMs += timed(T, "analysis.verifier", Sid, SessSpan, [&] {
        VR = runVerifier(M, Top, *Sum, *Proofs, GlobalsAtInit);
      });
    };
    if (W.K == Kind::Verify)
      StaticLeg();

    uint64_t RunSpan = T ? T->open("core.run", Sid, SessSpan) : 0;
    Clock::time_point S0 = Clock::now();
    DartReport R = D.run(Opts);
    double SessionMs = msSince(S0);
    if (T) {
      T->close(RunSpan);
      reportArgs(*T, RunSpan, R);
    }
    P.SessionMs.push_back(SessionMs);
    P.Layer.SessionMs += SessionMs;
    P.Layer.add(R);
    P.Runs += R.Runs;
    P.Crashes += R.BugFound;
    ++P.Sessions;

    Outcome Out = outcomeOf(R, 2 * size_t(M.numBranchSites()));
    bool Ok = Out == Ref[I];
    if (W.K == Kind::Verify) {
      CampaignEvidence E;
      E.Coverage = R.Coverage;
      for (const BugInfo &B : R.Bugs) {
        CampaignEvidence::Error Err;
        Err.Loc = B.Error.Loc;
        Err.Run = B.FoundAtRun;
        Err.Inputs = B.Inputs;
        Err.Message = B.Error.toString();
        E.Errors.push_back(std::move(Err));
      }
      for (const DirectionWitness &Wt : R.Witnesses) {
        CampaignEvidence::DirWitness DW;
        DW.Bit = Wt.Bit;
        DW.Run = Wt.Run;
        DW.Directed = Wt.Directed;
        DW.Inputs = Wt.Inputs;
        E.Witnesses.push_back(std::move(DW));
      }
      mergeDynamicEvidence(*VR, E);
      VerdictCounts V{VR->count(Verdict::Proved), VR->count(Verdict::Bug),
                      VR->count(Verdict::Unknown)};
      if (!(V == kNsDyD3Verdicts)) {
        std::printf("verdicts: proved=%u bug=%u unknown=%u\n", V.Proved,
                    V.Bug, V.Unknown);
        Ok = false;
      }
    }
    if (!Ok) {
      ++P.Failed;
      std::printf("MISMATCH %s session %zu (%s): runs=%u bug=%d complete=%d "
                  "coverage=%s\n",
                  W.Name.c_str(), I, Top.c_str(), R.Runs, int(R.BugFound),
                  int(R.CompleteExploration), Out.Coverage.c_str());
    }

    if (T) {
      // Standalone calls into each layer the session's setup uses.
      P.Layer.CallGraphMs += timed(T, "analysis.callgraph", Sid, SessSpan, [&] {
        CallGraph CG = CallGraph::build(M);
        (void)CG;
      });
      P.Layer.PointsToMs += timed(T, "analysis.pointsto", Sid, SessSpan, [&] {
        PointsToResult PT = runPointsToAnalysis(M, Top);
        (void)PT;
      });
      if (W.K != Kind::Verify)
        StaticLeg();
      P.Layer.JitBuildMs += timed(T, "jit.build", Sid, SessSpan, [&] {
        auto J = jit::JitProgram::build(M, Top);
        (void)J;
      });
      T->close(SessSpan);
    }
  }
  P.WallS = msSince(Wall0) / 1e3;
  P.CpuS = cpuSeconds() - Cpu0;
  if (T)
    T->close(PassSpan);
  return P;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  const char *Unit = "";
};

std::vector<Metric> endToEnd(double SetupS,
                             const std::vector<PassResult> &Passes) {
  std::vector<double> Wall, Rate, Cpu, SessionMs;
  for (const PassResult &P : Passes) {
    Wall.push_back(P.WallS);
    Rate.push_back(ratio(double(P.Runs), P.WallS));
    Cpu.push_back(P.CpuS);
    SessionMs.insert(SessionMs.end(), P.SessionMs.begin(), P.SessionMs.end());
  }
  return {
      {"setup_s", SetupS, "s"},
      {"wall_s", median(Wall), "s"},
      {"runs_per_s", median(Rate), "1/s"},
      {"session_ms_p50", quantile(SessionMs, 0.5), "ms"},
      {"session_ms_p90", quantile(SessionMs, 0.9), "ms"},
      {"cpu_s", median(Cpu), "s"},
      {"peak_rss_mib", peakRssMib(), "MiB"},
  };
}

/// Per-layer values of one traced pass.
std::map<std::string, double> layerValues(const PassResult &P, unsigned Jobs) {
  const LayerSums &L = P.Layer;
  const SolverStats &S = L.Solver;
  const SnapshotStats &C = L.Snapshot;
  std::map<std::string, double> V;
  V["analysis.callgraph_ms"] = L.CallGraphMs;
  V["analysis.pointsto_ms"] = L.PointsToMs;
  V["analysis.summary_ms"] = L.SummaryMs;
  V["analysis.prove_ms"] = L.ProveMs;
  V["analysis.verifier_ms"] = L.VerifierMs;
  V["analysis.dirs_proved"] = double(L.DirsProved);
  V["jit.build_ms"] = L.JitBuildMs;
  V["core.session_ms"] = L.SessionMs;
  // The three calls an engine makes at session setup (call graph and
  // points-to run inside the summary, so they are not added again).
  V["core.setup_share"] =
      ratio(L.SummaryMs + L.ProveMs + L.JitBuildMs, L.SessionMs);
  V["solver.queries"] = double(L.SolverCalls);
  V["solver.session_solves"] = double(S.SessionSolves);
  V["solver.session_pushes"] = double(S.SessionPushes);
  V["solver.fm_eliminations"] = double(S.FMEliminations);
  V["solver.unknown"] = double(S.Unknown);
  V["solver.sat_frac"] =
      ratio(double(S.Sat), double(S.Sat + S.Unsat + S.Unknown));
  double Hits = double(S.CacheHits + S.SessionCacheHits);
  V["solver.cache_hit_frac"] =
      ratio(Hits, Hits + double(S.CacheMisses + S.SessionCacheMisses));
  V["solver.sliced_pred_frac"] =
      S.SliceFullPreds
          ? 1.0 - double(S.SliceSentPreds) / double(S.SliceFullPreds)
          : 0.0;
  V["symbolic.arena_hit_frac"] =
      ratio(double(L.ArenaHits), double(L.ArenaInterns));
  V["concolic.checkpoints"] = double(C.CheckpointsCaptured);
  V["concolic.resume_hit_frac"] = ratio(
      double(C.RunsResumed), double(C.RunsResumed + C.ResumeMisses));
  V["concolic.skipped_instr_frac"] = C.resumedInstructionFraction();
  V["concolic.capture_ms"] = double(C.CaptureNanos) / 1e6;
  V["concolic.materialize_ms"] = double(C.MaterializeNanos) / 1e6;
  V["concolic.checkpoint_peak_mib"] =
      double(C.PeakResidentBytes) / (1024.0 * 1024.0);
  V["core.forcing_mismatch_frac"] =
      ratio(double(L.ForcingMismatches), double(L.Runs));
  V["core.restarts"] = double(L.Restarts);
  V["interp.instrs_executed"] = double(C.InstructionsExecuted);
  V["interp.steps_per_s"] =
      ratio(double(C.InstructionsExecuted), L.SessionMs / 1e3);
  V["jit.native_share"] =
      ratio(double(L.NativeInstrs), double(C.InstructionsExecuted));
  V["jit.deopts_per_run"] = ratio(double(L.Deopts), double(L.Runs));
  V["jit.code_bytes"] = double(L.CodeBytes);
  V["core.run_us"] = ratio(L.SessionMs * 1e3, double(L.Runs));
  V["core.cpu_util"] = ratio(P.CpuS, P.WallS * Jobs);
  return V;
}

const char *layerUnit(const std::string &Name) {
  auto Ends = [&](const char *Suffix) {
    size_t N = std::strlen(Suffix);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suffix) == 0;
  };
  if (Ends("_ms"))
    return "ms";
  if (Ends("_us"))
    return "us";
  if (Ends("_mib"))
    return "MiB";
  if (Ends("_per_s"))
    return "1/s";
  if (Ends("_bytes"))
    return "bytes";
  if (Ends("_frac") || Ends("_share") || Ends("_util"))
    return "ratio";
  return "count";
}

void printResult(bool Correct, unsigned Attempted, unsigned Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-30s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload "
               "minisip_audit|ns_verify_d3|ac_random_d64|ns_dy_d3_jobs2\n"
               "                      --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, TraceFile;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Tracing = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      WorkloadName = V;
    } else if (A == "--seed") {
      Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      Tracing = V == "1";
      if (V != "0" && V != "1")
        return usage();
    } else if (A == "--trace-file") {
      TraceFile = V;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  Workload W;
  if (!makeWorkload(WorkloadName, W) || !(Seconds > 0.0))
    return usage();

  // Dart::fromSource takes ~1 ms or less, so it is repeated: first
  // before the passes, then after each untraced pass for 5% of that
  // pass's time, so the samples span the whole run like the passes do.
  std::vector<double> SetupSamples;
  std::unique_ptr<Dart> Program = timeSetup(W.Source, 0.2, 20, SetupSamples);
  if (!Program)
    return 1;
  const Dart &D = *Program;
  Trace T;
  std::map<std::string, double> Layer;
  if (Tracing && !traceSetup(W.Source, 200, T, Layer))
    return 1;
  std::vector<DartOptions> Sessions = sessionsFor(W, D, Seed);
  std::vector<Outcome> Ref = referenceFor(W, D, Sessions);

  // A closed loop of whole passes for the measured time; a pass starts
  // only if one more round like the last one still ends in time (there
  // is always at least one). A traced run alternates untraced and traced
  // passes, so the tracing overhead is the difference between the two.
  std::vector<PassResult> Plain, Traced;
  uint64_t NextSession = 1;
  Clock::time_point Start = Clock::now();
  double RoundMs = 0.0;
  do {
    Clock::time_point Round0 = Clock::now();
    Plain.push_back(runPass(W, D, Sessions, Ref, nullptr, NextSession));
    timeSetup(W.Source, 0.05 * Plain.back().WallS, 1, SetupSamples);
    if (Tracing)
      Traced.push_back(runPass(W, D, Sessions, Ref, &T, NextSession));
    RoundMs = msSince(Round0);
  } while (msSince(Start) + RoundMs <= Seconds * 1e3);

  unsigned Attempted = 0, Failed = 0;
  for (const auto *Set : {&Plain, &Traced})
    for (const PassResult &P : *Set) {
      Attempted += P.Sessions;
      Failed += P.Failed;
    }
  const PassResult &First = Plain.front();
  std::printf("%s seed %" PRIu64 ": %zu passes, %u sessions/pass, "
              "%u/%u sessions crashed, %" PRIu64 " runs/pass, "
              "setup x%zu\n",
              W.Name.c_str(), Seed, Plain.size(), First.Sessions,
              First.Crashes, First.Sessions, First.Runs, SetupSamples.size());
  std::printf("  pass wall_s:");
  for (const PassResult &P : Plain)
    std::printf(" %.3f", P.WallS);
  std::printf("\n");
  std::printf("  %-30s %16.6f %s\n", "failed_frac",
              ratio(double(Failed), double(Attempted)), "ratio");

  std::vector<Metric> Metrics;
  if (!Tracing) {
    Metrics = endToEnd(median(SetupSamples), Plain);
  } else {
    std::map<std::string, std::vector<double>> Samples;
    for (const PassResult &P : Traced)
      for (const auto &[K, V] : layerValues(P, W.Base.Jobs))
        Samples[K].push_back(V);
    for (const auto &[K, V] : Samples)
      Layer[K] = median(V);
    std::vector<double> PlainMs;
    for (const PassResult &P : Plain)
      PlainMs.push_back(P.Layer.SessionMs);
    Layer["trace.overhead_frac"] =
        ratio(Layer["core.session_ms"], median(PlainMs)) - 1.0;
    for (const auto &[K, V] : Layer)
      Metrics.push_back({K, V, layerUnit(K)});
    if (!TraceFile.empty()) {
      if (!T.write(TraceFile)) {
        std::fprintf(stderr, "error: cannot write %s\n", TraceFile.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", TraceFile.c_str());
    }
  }
  printResult(Failed == 0, Attempted, Failed, Metrics);
  return 0;
}
