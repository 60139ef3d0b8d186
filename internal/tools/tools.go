// Package tools defines the analysis tools compared in the paper's §5:
// the semantics-based checker (kcc) and reimplementations of the detection
// principles of Valgrind, CheckPointer, and Frama-C's Value Analysis.
//
// Every tool analyzes one self-contained C program and renders a Verdict.
// All four are dynamic analyses (as the paper notes, "all of the tools we
// tested can be considered dynamic analysis tools"): they share the
// abstract machine of internal/interp and differ in their check Profile —
// which mirrors reality, where the tools share the x86 machine and differ
// in what their instrumentation can see.
package tools

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sema"
	"repro/internal/ub"
)

// SiteAnalyze is the fault-injection site fired at the top of every
// guarded tool analysis; the unit is the case's file name.
var SiteAnalyze = fault.RegisterSite("tools.analyze")

// Verdict classifies a tool's result on one program.
type Verdict int

// Verdicts.
const (
	// Accepted: the tool ran the program and reported nothing.
	Accepted Verdict = iota
	// Flagged: the tool reported undefined behavior.
	Flagged
	// Crashed: the program died (SIGFPE/SIGSEGV) without a diagnosis —
	// not a detection (Figure 2 scores Valgrind 0% on division by zero).
	Crashed
	// Inconclusive: compile failure, budget exhaustion, or other
	// non-verdict.
	Inconclusive
	// Timeout: the per-case watchdog (Config.Timeout) expired mid-run.
	// Distinct from Cancelled so a slow case is never confused with an
	// operator stopping the whole suite.
	Timeout
	// InternalError: the pipeline itself panicked on this case; the panic
	// was contained (Report.Fault carries the stack) and the run went on.
	InternalError
	// Cancelled: the surrounding run's context was cancelled while this
	// case was executing.
	Cancelled
	// Skipped: the case never ran (its run was cancelled while it was
	// still queued).
	Skipped
)

func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case Flagged:
		return "flagged"
	case Crashed:
		return "crashed"
	case Timeout:
		return "timeout"
	case InternalError:
		return "internal-error"
	case Cancelled:
		return "cancelled"
	case Skipped:
		return "skipped"
	default:
		return "inconclusive"
	}
}

// ParseVerdict is the inverse of String.
func ParseVerdict(s string) (Verdict, error) {
	switch s {
	case "accepted":
		return Accepted, nil
	case "flagged":
		return Flagged, nil
	case "crashed":
		return Crashed, nil
	case "inconclusive":
		return Inconclusive, nil
	case "timeout":
		return Timeout, nil
	case "internal-error":
		return InternalError, nil
	case "cancelled":
		return Cancelled, nil
	case "skipped":
		return Skipped, nil
	}
	return Inconclusive, fmt.Errorf("unknown verdict %q", s)
}

// MarshalJSON renders the verdict in its string form ("flagged"), the shape
// the canonical report schema uses.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.String())
}

// UnmarshalJSON implements the round trip.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseVerdict(s)
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// Report is a tool's result on one program.
//
// Wall time is split so that shared frontend work is never mis-attributed:
// CompileDuration is the frontend pass this report actually paid for
// (zero on the AnalyzeProgram fast path, where the caller compiled — once,
// possibly for several tools), and RunDuration is the tool's own analysis.
type Report struct {
	Verdict  Verdict
	UB       *ub.Error // when Flagged
	Detail   string
	ExitCode int
	// CompileDuration is the frontend time this analysis paid itself.
	CompileDuration time.Duration
	// RunDuration is the tool's own analysis time (the §5.1.2 cost).
	RunDuration time.Duration
	// Metrics is the execution-metrics snapshot of this analysis, present
	// only when Config.Metrics was set.
	Metrics *obs.Snapshot
	// Fault carries the contained panic when Verdict is InternalError.
	Fault *fault.InternalError
	// Trail is the flight-recorder tail: the last events the abstract
	// machine emitted before this analysis was quarantined (contained
	// panic), timed out, or was cancelled. Present only when Config.Flight
	// enabled the recorder and the verdict is one of those three.
	Trail []string
	// Transient marks a failure classified as non-deterministic (worth a
	// retry); the runner's retry policy reads it.
	Transient bool
	// Retried marks a report produced by a retry after a transient failure.
	Retried bool
}

// TotalDuration is the end-to-end wall time of the analysis.
func (r Report) TotalDuration() time.Duration { return r.CompileDuration + r.RunDuration }

// Tool analyzes C programs.
//
// AnalyzeProgram is the fast path: it analyzes an already-compiled
// translation unit, so a caller holding one immutable *sema.Program (see
// the contract on sema.Program) can fan it out to several tools — or
// several goroutines — paying for the frontend once. It honors ctx inside
// the interpretation loop, so cancellation stops a case mid-run (the report
// comes back Inconclusive). Analyze is the self-contained convenience
// wrapper: compile, then delegate to AnalyzeProgram with context.Background.
type Tool interface {
	Name() string
	Analyze(src, file string) Report
	AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report
}

// compileAndDelegate implements the Analyze contract shared by every tool:
// run the frontend, charge its cost to CompileDuration, delegate the rest.
func compileAndDelegate(t Tool, src, file string, model *ctypes.Model) Report {
	start := time.Now()
	prog, err := driver.Compile(src, file, driver.Options{Model: model})
	compile := time.Since(start)
	if err != nil {
		return Report{Verdict: Inconclusive, Detail: "compile: " + err.Error(), CompileDuration: compile}
	}
	rep := t.AnalyzeProgram(context.Background(), prog, file)
	rep.CompileDuration = compile
	return rep
}

// guarded is the fault-containment boundary shared by every tool's
// AnalyzeProgram: it arms the per-case watchdog, fires the tools.analyze
// injection site, and converts a panic anywhere in the analysis into an
// InternalError report — one berserk case must not take down the worker
// that ran it.
//
// It is also the observability boundary: the "interp" span brackets the
// whole analysis (annotated with tool, file, verdict, and the fired UB
// behavior when one fires), and when Config.Flight is positive a per-case
// flight recorder is handed to fn; if the case is quarantined, times out,
// or is cancelled, the recorder's tail becomes Report.Trail — the last
// thing the abstract machine did before it died.
func guarded(ctx context.Context, name string, cfg Config, file string, fn func(context.Context, *obs.Flight) Report) Report {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "interp")
	var fr *obs.Flight
	if cfg.Flight > 0 {
		fr = obs.NewFlight(cfg.Flight)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var rep Report
	err := fault.Guard(fault.StageAnalyze, file, func() error {
		if err := cfg.Injector.Fire(SiteAnalyze, file); err != nil {
			return err
		}
		rep = fn(ctx, fr)
		return nil
	})
	if err != nil {
		rep = ReportFromError(err)
		rep.RunDuration = time.Since(start)
		if ie, ok := fault.AsInternal(err); ok {
			faultEv := obs.Event{Kind: obs.EvFault, Name: ie.Stage, Detail: file}
			if cfg.Observer != nil {
				cfg.Observer.Event(&faultEv)
			}
			if fr != nil {
				fr.Event(&faultEv)
			}
		}
	}
	if fr != nil {
		switch rep.Verdict {
		case InternalError, Timeout, Cancelled:
			rep.Trail = fr.Lines()
		}
	}
	if sp.Recording() {
		sp.SetAttr("tool", name)
		sp.SetAttr("file", file)
		sp.SetAttr("verdict", rep.Verdict.String())
		if rep.UB != nil && rep.UB.Behavior != nil {
			sp.SetAttr("ub", obs.CheckKey(rep.UB.Behavior.Code))
		}
		sp.End()
	}
	return rep
}

// ReportFromError classifies a pipeline error into the verdict taxonomy:
// contained panics become InternalError (with the captured stack), watchdog
// expiry becomes Timeout, run cancellation becomes Cancelled, and anything
// else is Inconclusive — marked Transient when the fault layer says the
// failure is non-deterministic.
func ReportFromError(err error) Report {
	if ie, ok := fault.AsInternal(err); ok {
		return Report{Verdict: InternalError, Detail: ie.Error(), Fault: ie}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Report{Verdict: Timeout, Detail: err.Error()}
	case errors.Is(err, context.Canceled):
		return Report{Verdict: Cancelled, Detail: err.Error()}
	}
	return Report{Verdict: Inconclusive, Detail: err.Error(), Transient: fault.IsTransient(err)}
}

// Config bounds and instruments tool executions.
type Config struct {
	Model *ctypes.Model
	// Budget bounds each execution; zero fields take interp.DefaultBudget
	// values.
	Budget interp.Budget
	// Metrics enables per-analysis metrics collection: each Report carries
	// an obs.Snapshot of the run.
	Metrics bool
	// Observer additionally receives the raw event stream (tracing). It
	// composes with Metrics via obs.Multi.
	Observer obs.Observer
	// Timeout, when positive, is the per-case wall-clock watchdog: each
	// guarded analysis runs under a context deadline and reports Timeout
	// when it expires. It layers on Budget — the budget bounds abstract
	// work, the watchdog bounds real time.
	Timeout time.Duration
	// Injector, when set, fires the tools.analyze site before each guarded
	// analysis and is handed to the interpreter (interp.step site).
	Injector *fault.Injector
	// Flight, when positive, arms a per-analysis flight recorder retaining
	// the last Flight events; Report.Trail carries its tail when the case
	// is quarantined, times out, or is cancelled. Zero disables recording.
	Flight int
}

// profileTool runs programs on the shared abstract machine under a
// detection profile.
type profileTool struct {
	name string
	prof *interp.Profile
	cfg  Config
	// staticChecks reports the frontend's statically detected UB (only
	// the semantics-based tool does translation-time checking).
	staticChecks bool
}

// Name implements Tool.
func (t *profileTool) Name() string { return t.name }

// Analyze implements Tool.
func (t *profileTool) Analyze(src, file string) Report {
	return compileAndDelegate(t, src, file, t.cfg.Model)
}

// AnalyzeProgram implements Tool.
func (t *profileTool) AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report {
	return guarded(ctx, t.name, t.cfg, file, func(ctx context.Context, fr *obs.Flight) Report {
		return t.analyze(ctx, prog, fr)
	})
}

func (t *profileTool) analyze(ctx context.Context, prog *sema.Program, fr *obs.Flight) Report {
	start := time.Now()
	var m *obs.Metrics
	observer := t.cfg.Observer
	if t.cfg.Metrics {
		m = obs.NewMetrics()
		observer = obs.Multi(observer, m)
	}
	if fr != nil {
		observer = obs.Multi(observer, fr)
	}
	done := func(r Report) Report {
		r.RunDuration = time.Since(start)
		if m != nil {
			r.Metrics = m.Snapshot()
		}
		return r
	}
	if t.staticChecks && len(prog.StaticUB) > 0 {
		return done(Report{Verdict: Flagged, UB: prog.StaticUB[0], Detail: prog.StaticUB[0].Error()})
	}
	res := interp.Run(prog, interp.Options{
		Profile:  t.prof,
		Budget:   t.cfg.Budget,
		Context:  ctx,
		Observer: observer,
		Injector: t.cfg.Injector,
	})
	switch {
	case res.UB != nil:
		return done(Report{Verdict: Flagged, UB: res.UB, Detail: res.UB.Error(), ExitCode: res.ExitCode})
	case res.Err != nil:
		if _, crashed := res.Err.(*interp.CrashError); crashed {
			return done(Report{Verdict: Crashed, Detail: res.Err.Error()})
		}
		return done(ReportFromError(res.Err))
	default:
		return done(Report{Verdict: Accepted, ExitCode: res.ExitCode})
	}
}

// KCC is the semantics-based undefinedness checker: the full profile plus
// translation-time static checks.
func KCC(cfg Config) Tool {
	return &profileTool{name: "kcc", prof: interp.KCCProfile(), cfg: cfg, staticChecks: true}
}

// Memcheck models a Valgrind-style binary-instrumentation memory checker.
func Memcheck(cfg Config) Tool {
	return &profileTool{name: "Valgrind", prof: interp.MemcheckProfile(), cfg: cfg}
}

// CheckPointer models a pointer-metadata instrumentation checker.
func CheckPointer(cfg Config) Tool {
	return &profileTool{name: "CheckPointer", prof: interp.CheckPointerProfile(), cfg: cfg}
}

// ValueAnalysis models an abstract-interpretation value analysis run in C
// interpreter mode.
func ValueAnalysis(cfg Config) Tool {
	return &profileTool{name: "V. Analysis", prof: interp.ValueAnalysisProfile(), cfg: cfg}
}

// All returns the four tools of Figure 2/3, in the paper's column order.
func All(cfg Config) []Tool {
	return []Tool{Memcheck(cfg), CheckPointer(cfg), ValueAnalysis(cfg), KCC(cfg)}
}
