// Package sim provides a synchronous, cycle-level Monte-Carlo simulator
// of N×M×B multiple bus multiprocessors under the two-stage arbitration
// scheme the paper analyzes. It exists to validate the closed-form
// bandwidth models: the analysis assumes module request events are
// independent across modules (they are not, exactly — each processor
// issues at most one request per cycle), and the simulator quantifies
// the error of that approximation.
//
// The simulator implements the paper's operating assumptions 1–5
// (synchronous cycles, independent requests at rate r, blocked requests
// dropped) as ModeDrop, and additionally a ModeResubmit extension in
// which blocked processors hold and re-issue their request — the
// realistic regime assumption 5 idealizes away.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"multibus/internal/arbiter"
	"multibus/internal/numerics"
	"multibus/internal/rng"
	"multibus/internal/topology"
	"multibus/internal/workload"
)

// Mode selects what happens to blocked requests.
type Mode int

const (
	// ModeDrop discards blocked requests (the paper's assumption 5):
	// next-cycle requests are independent of this cycle's outcome.
	ModeDrop Mode = iota
	// ModeResubmit makes blocked processors hold their request and
	// re-issue it to the same module next cycle.
	ModeResubmit
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDrop:
		return "drop"
	case ModeResubmit:
		return "resubmit"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by the simulator.
var (
	ErrBadConfig = errors.New("sim: invalid configuration")
	ErrMismatch  = errors.New("sim: workload and topology dimensions disagree")
)

// Config describes one simulation run. Topology and Workload are
// required; everything else has sensible defaults (see Run).
type Config struct {
	Topology *topology.Network
	Workload workload.Generator

	// Assigner is the stage-2 bus assigner; nil classifies Topology and
	// picks the scheme's assigner via arbiter.ForTopology. An assigner
	// carries round-robin state, so a config that sets one serves one
	// run (scenario.Built.SimConfig sets the assigner of its built
	// classification).
	Assigner arbiter.BusAssigner
	// Stage1Policy is the memory-arbiter tie-break (default
	// PolicyRandom, the paper's assumption).
	Stage1Policy arbiter.Stage1Policy
	// Mode selects drop (paper) or resubmit semantics.
	Mode Mode
	// Cycles is the number of measured cycles (default 20000).
	Cycles int
	// Warmup cycles run before measurement begins (default Cycles/10).
	Warmup int
	// Seed makes the run reproducible. The zero value selects the
	// default seed via EffectiveSeed (the one place the default is
	// defined); Run, RunReplications, and sweep.Run all share that
	// normalization.
	Seed int64
	// Batches is the number of batch-means batches for the confidence
	// interval (default 20; must divide into at least 2 cycles each).
	Batches int
	// ModuleServiceCycles is how many cycles a module stays busy serving
	// an accepted request (default 1, the paper's assumption that the
	// memory cycle equals the service time). With k > 1 a module that
	// accepts in cycle t rejects new requests until cycle t+k — the
	// "referenced module might be busy" memory interference of §II. The
	// bus is held only for the accepting cycle (the transfer), so bus
	// capacity is unchanged.
	ModuleServiceCycles int
}

// Result carries the measured statistics of a run.
type Result struct {
	Cycles int
	Mode   Mode

	// Bandwidth is the effective memory bandwidth: accepted requests per
	// measured cycle — the paper's performance metric.
	Bandwidth float64
	// BandwidthCI95 is the 95% confidence half-width of Bandwidth,
	// estimated by batch means.
	BandwidthCI95 float64

	// Offered is the total number of request attempts (including
	// resubmissions); Accepted the number served.
	Offered  int64
	Accepted int64
	// NewRequests counts freshly generated requests only.
	NewRequests int64
	// AcceptanceProbability is Accepted/Offered (1 if nothing offered).
	AcceptanceProbability float64

	// MemoryBlocked counts requests that lost stage-1 arbitration;
	// BusBlocked counts stage-1 winners denied a bus in stage 2;
	// StrandedBlocked counts requests to modules with no surviving bus;
	// ModuleBusyBlocked counts requests to modules still serving an
	// earlier request (only possible with ModuleServiceCycles > 1).
	MemoryBlocked     int64
	BusBlocked        int64
	StrandedBlocked   int64
	ModuleBusyBlocked int64

	// BusBusyMean is the mean number of buses carrying a transfer per
	// cycle (equals Bandwidth; kept for readability of reports), and
	// BusUtilization that mean divided by B.
	BusBusyMean    float64
	BusUtilization float64

	// ModuleServiceRate[j] is the fraction of cycles module j was
	// serving a request.
	ModuleServiceRate []float64
	// BusServiceRate[i] is the fraction of cycles bus i carried a
	// transfer — the empirical counterpart of the per-bus Y_i of the
	// paper's equations (5) and (11).
	BusServiceRate []float64
	// ProcessorAccepted[p] / ProcessorOffered[p] give per-processor
	// service fairness.
	ProcessorAccepted []int64
	ProcessorOffered  []int64

	// MeanWaitCycles is the mean number of cycles an accepted request
	// waited before service (always 0 in ModeDrop).
	MeanWaitCycles float64
}

// runPlan carries the normalized run lengths derived from a Config.
type runPlan struct {
	cycles, warmup, batches int
}

// newEngine validates cfg, applies defaults, and builds a ready-to-step
// engine. Separated from Run so tests can drive the cycle loop directly
// (the allocation-regression guard steps a bare engine).
func newEngine(cfg Config) (*engine, runPlan, error) {
	var plan runPlan
	if cfg.Topology == nil || cfg.Workload == nil {
		return nil, plan, fmt.Errorf("%w: topology and workload are required", ErrBadConfig)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, plan, err
	}
	n, m := cfg.Topology.N(), cfg.Topology.M()
	if cfg.Workload.NProcessors() != n || cfg.Workload.MModules() != m {
		return nil, plan, fmt.Errorf("%w: workload %d×%d vs topology %d×%d",
			ErrMismatch, cfg.Workload.NProcessors(), cfg.Workload.MModules(), n, m)
	}
	switch cfg.Mode {
	case ModeDrop, ModeResubmit:
	default:
		return nil, plan, fmt.Errorf("%w: unknown mode %d", ErrBadConfig, int(cfg.Mode))
	}
	plan.cycles = cfg.Cycles
	if plan.cycles == 0 {
		plan.cycles = 20000
	}
	if plan.cycles < 1 {
		return nil, plan, fmt.Errorf("%w: cycles=%d", ErrBadConfig, plan.cycles)
	}
	plan.warmup = cfg.Warmup
	if plan.warmup == 0 {
		plan.warmup = plan.cycles / 10
	}
	if plan.warmup < 0 {
		return nil, plan, fmt.Errorf("%w: warmup=%d", ErrBadConfig, plan.warmup)
	}
	plan.batches = cfg.Batches
	if plan.batches == 0 {
		plan.batches = 20
	}
	if plan.batches < 2 || plan.batches > plan.cycles {
		return nil, plan, fmt.Errorf("%w: batches=%d for %d cycles", ErrBadConfig, plan.batches, plan.cycles)
	}
	service := cfg.ModuleServiceCycles
	if service == 0 {
		service = 1
	}
	if service < 1 {
		return nil, plan, fmt.Errorf("%w: module service cycles=%d", ErrBadConfig, service)
	}
	assigner := cfg.Assigner
	if assigner == nil {
		var err error
		assigner, err = arbiter.ForTopology(cfg.Topology)
		if err != nil {
			return nil, plan, err
		}
	}
	stage1, err := arbiter.NewStage1(m, cfg.Stage1Policy)
	if err != nil {
		return nil, plan, err
	}

	eng := &engine{
		cfg:      cfg,
		n:        n,
		m:        m,
		service:  int64(service),
		rng:      newRNG(EffectiveSeed(cfg.Seed)),
		stage1:   stage1,
		assigner: assigner,
		stranded: strandedSet(cfg.Topology),

		pendingModule: make([]int, n),
		pendingSince:  make([]int64, n),
		busyUntil:     make([]int64, m),
		reqProcs:      make([][]int, m),
		winner:        make([]int, m),
		requester:     make([]int, n),
		reqBits:       make([]uint64, (m+63)/64),
		reqModules:    make([]int, 0, m),
		granted:       make([]bool, m),
	}
	for j := 0; j < m; j++ {
		eng.busyUntil[j] = -1
	}
	for p := 0; p < n; p++ {
		eng.pendingModule[p] = workload.NoRequest
	}
	return eng, plan, nil
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxCheckInterval is how many cycles, warm-up or measured, run between
// context checks: a few microseconds of simulation, so a cancelled run
// stops promptly whatever its batch size, at a negligible check cost.
const ctxCheckInterval = 4096

// RunContext executes one simulation, honouring ctx: cancellation is
// checked every ctxCheckInterval cycles, so a run is abandoned shortly
// after the deadline rather than at the end of a batch or of the run.
// The context error is returned unwrapped, matchable with errors.Is
// against context.Canceled / context.DeadlineExceeded. Checks draw
// nothing from the random stream.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	eng, plan, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cycles, warmup, batches := plan.cycles, plan.warmup, plan.batches
	n, m := eng.n, eng.m

	for c := 0; c < warmup; c++ {
		if c%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		eng.step(false)
	}
	res := &Result{
		Cycles:            cycles,
		Mode:              cfg.Mode,
		ModuleServiceRate: make([]float64, m),
		BusServiceRate:    make([]float64, cfg.Topology.B()),
		ProcessorAccepted: make([]int64, n),
		ProcessorOffered:  make([]int64, n),
	}
	eng.res = res
	batchAccepted := make([]float64, batches)
	batchSize := cycles / batches
	for c := 0; c < cycles; c++ {
		if c%ctxCheckInterval == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		accepted := eng.step(true)
		bi := c / batchSize
		if bi >= batches {
			bi = batches - 1 // remainder cycles fold into the last batch
		}
		batchAccepted[bi] += float64(accepted)
	}

	res.Bandwidth = float64(res.Accepted) / float64(cycles)
	res.BusBusyMean = res.Bandwidth
	res.BusUtilization = res.Bandwidth / float64(cfg.Topology.B())
	if res.Offered > 0 {
		res.AcceptanceProbability = float64(res.Accepted) / float64(res.Offered)
	} else {
		res.AcceptanceProbability = 1
	}
	for j := 0; j < m; j++ {
		res.ModuleServiceRate[j] /= float64(cycles)
	}
	for i := range res.BusServiceRate {
		res.BusServiceRate[i] /= float64(cycles)
	}
	if res.Accepted > 0 {
		res.MeanWaitCycles = eng.totalWait / float64(res.Accepted)
	}
	// Batch means CI: normalize batch sums to per-cycle means.
	perCycle := make([]float64, batches)
	for i, v := range batchAccepted {
		size := batchSize
		if i == batches-1 {
			size = cycles - batchSize*(batches-1)
		}
		perCycle[i] = v / float64(size)
	}
	sd := math.Sqrt(numerics.Variance(perCycle))
	res.BandwidthCI95 = tCritical95(batches-1) * sd / math.Sqrt(float64(batches))
	return res, nil
}

// engine holds the mutable per-run state.
//
// Invariant: after warmup, step allocates nothing — all per-cycle state
// lives in the scratch slices below, reset in place each cycle. The
// allocation-regression test (TestStepSteadyStateAllocations) guards
// this; keep new per-cycle state out of maps and fresh slices.
type engine struct {
	cfg      Config
	n, m     int
	service  int64
	rng      *rng.Rand
	stage1   *arbiter.Stage1
	assigner arbiter.BusAssigner
	stranded []bool // per module: wired to no surviving bus
	res      *Result

	cycle         int64
	totalWait     float64
	pendingModule []int   // resubmit: module a blocked processor holds
	pendingSince  []int64 // resubmit: cycle the held request was issued
	busyUntil     []int64 // per module: last cycle of its current service

	// scratch, reused across cycles. Per-module entries are touched only
	// for the modules requested in a cycle, and reset the next cycle.
	reqProcs   [][]int
	winner     []int
	requester  []int    // per processor: module requested this cycle, or NoRequest
	reqBits    []uint64 // bitset over modules with a stage-1 contender this cycle
	reqModules []int    // modules with at least one request this cycle, ascending
	granted    []bool   // per module: granted a bus this cycle
}

// step simulates one cycle; returns the number of accepted requests.
func (e *engine) step(measure bool) int {
	e.cycle++
	e.cfg.Workload.BeginCycle()

	// Gather this cycle's requests per module. Only last cycle's
	// requested modules hold contenders or grants to clear.
	for _, j := range e.reqModules {
		e.reqProcs[j] = e.reqProcs[j][:0]
		e.granted[j] = false
	}
	requester := e.requester // per processor: module requested (for resubmit settle)
	for p := 0; p < e.n; p++ {
		requester[p] = workload.NoRequest
		var mod int
		isNew := false
		if e.cfg.Mode == ModeResubmit && e.pendingModule[p] != workload.NoRequest {
			mod = e.pendingModule[p]
		} else {
			mod = e.cfg.Workload.Next(p, e.rng)
			if mod == workload.NoRequest {
				continue
			}
			isNew = true
			if e.cfg.Mode == ModeResubmit {
				e.pendingSince[p] = e.cycle
			}
		}
		requester[p] = mod
		if measure {
			e.res.Offered++
			e.res.ProcessorOffered[p]++
			if isNew {
				e.res.NewRequests++
			}
		}
		if e.stranded[mod] {
			if measure {
				e.res.StrandedBlocked++
			}
			// A stranded request can never be served; in resubmit mode
			// holding it would deadlock the processor, so it is dropped.
			if e.cfg.Mode == ModeResubmit {
				e.pendingModule[p] = workload.NoRequest
			}
			continue
		}
		if e.busyUntil[mod] >= e.cycle {
			// Module still serving an earlier request (memory busy).
			if measure {
				e.res.ModuleBusyBlocked++
			}
			if e.cfg.Mode == ModeResubmit {
				e.pendingModule[p] = mod // hold and retry
			}
			continue
		}
		e.reqProcs[mod] = append(e.reqProcs[mod], p)
		e.reqBits[mod>>6] |= 1 << uint(mod&63)
	}

	// Stage 1: one winner per requested module, in ascending module
	// order so the arbiters' draws keep their order. The bitset is
	// cleared as it is read.
	requestedModules := e.reqModules[:0]
	for w, word := range e.reqBits {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			procs := e.reqProcs[j]
			e.winner[j] = e.stage1.Grant(j, procs, e.rng)
			requestedModules = append(requestedModules, j)
			if measure {
				e.res.MemoryBlocked += int64(len(procs) - 1)
			}
		}
		e.reqBits[w] = 0
	}
	e.reqModules = requestedModules

	// Stage 2: bus assignment with bus attribution. The grant slice is
	// the assigner's scratch, valid only until its next call.
	grants := e.assigner.Assign(requestedModules, e.rng)
	for _, g := range grants {
		if g.Module >= 0 && g.Module < e.m {
			e.granted[g.Module] = true
		}
		if measure && g.Bus >= 0 && g.Bus < len(e.res.BusServiceRate) {
			e.res.BusServiceRate[g.Bus]++
		}
	}
	if measure {
		for _, j := range requestedModules {
			if !e.granted[j] {
				e.res.BusBlocked++
			}
		}
	}

	// Settle winners and blocked processors.
	accepted := 0
	for _, g := range grants {
		j := g.Module
		p := e.winner[j]
		e.busyUntil[j] = e.cycle + e.service - 1
		accepted++
		if measure {
			e.res.Accepted++
			e.res.ProcessorAccepted[p]++
			e.res.ModuleServiceRate[j]++
			if e.cfg.Mode == ModeResubmit {
				e.totalWait += float64(e.cycle - e.pendingSince[p])
			}
		}
		if e.cfg.Mode == ModeResubmit {
			e.pendingModule[p] = workload.NoRequest
		}
	}
	if e.cfg.Mode == ModeResubmit {
		for p := 0; p < e.n; p++ {
			mod := requester[p]
			if mod == workload.NoRequest {
				continue
			}
			if e.granted[mod] && e.winner[mod] == p {
				continue // served
			}
			if e.stranded[mod] {
				continue // already dropped
			}
			e.pendingModule[p] = mod // hold for next cycle
		}
	}
	return accepted
}

// strandedSet returns, per module, whether it is connected to no
// surviving bus.
func strandedSet(nw *topology.Network) []bool {
	out := make([]bool, nw.M())
	for _, j := range nw.InaccessibleModules() {
		out[j] = true
	}
	return out
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (clamped to the normal 1.96 for df ≥ 30).
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	}
	if df < 1 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// JainFairness returns Jain's fairness index over per-processor accepted
// counts: (Σ a_p)² / (N · Σ a_p²) ∈ (0, 1], 1 being perfectly fair. It
// returns 1 for an idle run.
func (r *Result) JainFairness() float64 {
	var sum, sumSq float64
	for _, a := range r.ProcessorAccepted {
		v := float64(a)
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(r.ProcessorAccepted)) * sumSq)
}
