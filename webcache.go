// Package webcache is a library for studying and deploying removal
// (replacement) policies in network caches for World-Wide Web documents.
//
// It reproduces Williams, Abrams, Standridge, Abdulla & Fox, "Removal
// Policies in Network Caches for World-Wide Web Documents" (SIGCOMM
// 1996): the paper's taxonomy of removal policies as sorting problems,
// its trace-driven proxy-cache simulator, synthetic versions of its five
// workloads, and all four of its experiments — plus two extension
// experiments answering its §5 open problems, a deployable HTTP caching
// proxy driven by the same policy engine, and the tcpdump→log collection
// pipeline of §2.1.
//
// # Quick start
//
//	tr, _, err := webcache.GenerateWorkload("BL", 42, 0.1)
//	if err != nil { ... }
//	pol, _ := webcache.NewPolicy("SIZE", tr.Start)
//	cache := webcache.NewCache(webcache.CacheConfig{Capacity: 40 << 20, Policy: pol})
//	for i := range tr.Requests {
//		cache.Access(&tr.Requests[i])
//	}
//	fmt.Printf("HR=%.1f%%\n", cache.Stats().HitRate()*100)
//
// # Layout
//
//   - Policies and sorting keys: NewPolicy, Keys, AllCombos (Table 1–3).
//   - Simulated caches: NewCache, NewTwoLevel, NewAudioPartitioned.
//   - Traces: ReadTraceCLF/WriteTraceCLF, ValidateTrace (§1.1),
//     GenerateWorkload (§2, Table 4).
//   - Experiments: MaxHitRates (Exp 1), ComparePolicies (Exp 2),
//     TwoLevelStudy (Exp 3), PartitionStudy (Exp 4), SharedL2Study
//     (Exp 5, §5 open problem 3), LatencyStudy (Exp 6, §1's third
//     criterion).
//   - Trace analysis: AnalyzeTrace (§2.2); transformations MergeTraces,
//     FilterTraceClients, WindowTrace, RebaseTrace.
//   - Live proxy: NewProxy, NewProxyStore, NewICPResponder (Harvest-style
//     sibling cooperation).
//   - Capture pipeline: FilterCapture, SynthesizeCapture (§2.1).
package webcache

import (
	"fmt"
	"io"

	"webcache/internal/analysis"
	"webcache/internal/capture"
	"webcache/internal/core"
	"webcache/internal/httpstream"
	"webcache/internal/policy"
	"webcache/internal/proxy"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// Re-exported core types. The aliases make the library's working types
// nameable by downstream code without exposing the internal packages.
type (
	// Request is one validated Web request (a common-log-format line).
	Request = trace.Request
	// Trace is an ordered request sequence with its start time.
	Trace = trace.Trace
	// DocType classifies documents by media type (Table 4 categories).
	DocType = trace.DocType
	// Key is a removal-policy sorting key (Table 1).
	Key = policy.Key
	// Policy selects removal victims; see NewPolicy.
	Policy = policy.Policy
	// Combo is a (primary, secondary) key pair from the paper's
	// 36-policy experiment design.
	Combo = policy.Combo
	// Cache is the simulated proxy cache.
	Cache = core.Cache
	// CacheConfig configures a Cache.
	CacheConfig = core.Config
	// CacheStats reports hit rates and occupancy.
	CacheStats = core.Stats
	// TwoLevel is the Experiment 3 hierarchy.
	TwoLevel = core.TwoLevel
	// Partitioned is the Experiment 4 media-partitioned cache.
	Partitioned = core.Partitioned
	// WorkloadConfig parameterizes a synthetic workload.
	WorkloadConfig = workload.Config
	// ProxyServer is the live HTTP caching proxy.
	ProxyServer = proxy.Server
	// ProxyStore is the live proxy's policy-driven object store.
	ProxyStore = proxy.Store
	// ProxyObjectStore is the store contract the proxy serves from;
	// ProxyStore satisfies it.
	ProxyObjectStore = proxy.ObjectStore
)

// Document type constants (Table 4 categories).
const (
	Graphics = trace.Graphics
	Text     = trace.Text
	Audio    = trace.Audio
	Video    = trace.Video
	CGI      = trace.CGI
	Unknown  = trace.Unknown
)

// Sorting-key constants (Table 1, plus RANDOM and the §5 extension keys).
const (
	KeySize     = policy.KeySize
	KeyLog2Size = policy.KeyLog2Size
	KeyETime    = policy.KeyETime
	KeyATime    = policy.KeyATime
	KeyDayATime = policy.KeyDayATime
	KeyNRef     = policy.KeyNRef
	KeyRandom   = policy.KeyRandom
	KeyType     = policy.KeyType
	KeyLatency  = policy.KeyLatency
)

// NewPolicy builds a removal policy from a specification string: a
// literature policy name ("FIFO", "LRU", "LFU", "LRU-MIN", "Hyper-G",
// "Pitkow/Recker", "GD-Size(1)") or a slash-separated key list such as
// "SIZE/NREF" (a random tiebreak is always appended). dayStart anchors
// day-based keys; pass the trace's Start.
func NewPolicy(spec string, dayStart int64) (Policy, error) {
	return policy.Parse(spec, dayStart)
}

// NewSortedPolicy builds a policy from explicit keys (Table 1 order
// semantics, random tiebreak appended).
func NewSortedPolicy(keys []Key, dayStart int64) Policy {
	return policy.NewSorted(keys, dayStart)
}

// AllCombos returns the paper's 36 primary/secondary key combinations.
func AllCombos() []Combo { return policy.AllCombos() }

// PrimaryCombos returns the six Table 1 keys each paired with a random
// secondary — the policies of Figures 8–12.
func PrimaryCombos() []Combo { return policy.PrimaryCombos() }

// NewCache returns a simulated proxy cache. Capacity 0 means infinite.
func NewCache(cfg CacheConfig) *Cache { return core.New(cfg) }

// NewTwoLevel returns the Experiment 3 two-level hierarchy.
func NewTwoLevel(l1, l2 CacheConfig) *TwoLevel { return core.NewTwoLevel(l1, l2) }

// NewAudioPartitioned returns the Experiment 4 audio/non-audio
// partitioned cache.
func NewAudioPartitioned(audio, other CacheConfig) *Partitioned {
	return core.NewAudioPartitioned(audio, other)
}

// GenerateWorkload synthesizes one of the paper's five workloads ("U",
// "G", "C", "BR", "BL") at the given seed and scale (1.0 = the paper's
// full trace volume), applies the §1.1 validation, and returns the
// simulator-ready trace.
func GenerateWorkload(name string, seed uint64, scale float64) (*Trace, *trace.ValidateStats, error) {
	cfg, err := workload.ByName(name, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg.Scale = scale
	return workload.GenerateValidated(cfg)
}

// WorkloadNames lists the five paper workloads.
func WorkloadNames() []string { return append([]string(nil), workload.Names...) }

// ReadTraceCLF parses an (extended) common-log-format stream into a raw
// trace; run ValidateTrace before simulating.
func ReadTraceCLF(r io.Reader, name string) (*Trace, error) {
	tr, stats, err := trace.ReadCLF(r, name)
	if err != nil {
		return nil, err
	}
	if stats.Malformed > 0 && stats.Parsed == 0 {
		return nil, fmt.Errorf("webcache: no parseable log lines (first error: %v)", stats.FirstError)
	}
	return tr, nil
}

// WriteTraceCLF writes tr in common log format; extended appends
// Last-Modified fields where present.
func WriteTraceCLF(w io.Writer, tr *Trace, extended bool) error {
	return trace.WriteCLF(w, tr, extended)
}

// ValidateTrace applies the paper's §1.1 rules (status-200 only,
// zero-size inheritance) and returns the simulator-ready trace.
func ValidateTrace(raw *Trace) (*Trace, *trace.ValidateStats) {
	return trace.Validate(raw)
}

// MaxHitRates runs Experiment 1 (infinite cache): the maximum achievable
// HR/WHR and MaxNeeded for the trace.
func MaxHitRates(tr *Trace, seed uint64) *sim.Exp1Result {
	return sim.Experiment1(tr, seed)
}

// ComparePolicies runs Experiment 2: each key combination on a cache of
// fraction×MaxNeeded, scored against the infinite-cache bound. The
// independent replays fan out across a GOMAXPROCS worker pool; results
// are identical to a sequential run (see Runner).
func ComparePolicies(tr *Trace, base *sim.Exp1Result, combos []Combo, fraction float64, seed uint64) *sim.Exp2Result {
	return sim.Experiment2(tr, base, combos, fraction, seed)
}

// Runner is the parallel experiment engine: a bounded worker pool that
// fans independent cache replays out across goroutines and returns
// results in deterministic input order. All experiment entry points use
// a shared GOMAXPROCS-sized runner by default; construct one with
// NewRunner to control the worker count explicitly and pass it to the
// sim package's ...R entry points.
type Runner = sim.Runner

// RunnerConfig configures a Runner (Workers <= 0 means GOMAXPROCS).
type RunnerConfig = sim.RunnerConfig

// NewRunner returns a parallel experiment runner.
func NewRunner(cfg RunnerConfig) *Runner { return sim.NewRunner(cfg) }

// TwoLevelStudy runs Experiment 3 on the trace.
func TwoLevelStudy(tr *Trace, base *sim.Exp1Result, fraction float64, seed uint64) *sim.Exp3Result {
	return sim.Experiment3(tr, base, fraction, seed)
}

// PartitionStudy runs Experiment 4 on the trace.
func PartitionStudy(tr *Trace, base *sim.Exp1Result, fraction float64, seed uint64) *sim.Exp4Result {
	return sim.Experiment4(tr, base, fraction, seed)
}

// NewProxyStore returns a live-proxy object store with the given byte
// capacity and policy (nil policy defaults to SIZE, the paper's
// recommendation).
func NewProxyStore(capacity int64, pol Policy) *ProxyStore {
	return proxy.NewStore(capacity, pol)
}

// NewProxy returns a live HTTP caching proxy over the store (a
// *ProxyStore, or a wrapper of one).
func NewProxy(store ProxyObjectStore) *ProxyServer { return proxy.New(store) }

// SynthesizeCapture renders tr as the Ethernet/IPv4/TCP packet capture a
// backbone monitor would record (§2.1), written as a pcap stream to w.
func SynthesizeCapture(tr *Trace, w io.Writer, seed uint64) error {
	pw := capture.NewWriter(w, 0)
	return capture.NewSynthesizer(seed).WriteTrace(tr, pw)
}

// FilterCapture reconstructs a request trace from a pcap stream — the
// paper's tcpdump→common-log-format filter (§2.1).
func FilterCapture(r io.Reader, name string) (*Trace, error) {
	return httpstream.NewFilter().Run(r, name)
}

// AnalyzeTrace characterizes a validated trace the way §2.2 of the paper
// characterizes its workloads: type mix, popularity concentration, size
// distribution and temporal locality (the data behind Figs. 1, 2, 13, 14).
func AnalyzeTrace(tr *Trace) *analysis.Report { return analysis.Analyze(tr) }

// SharedL2Study runs the §5 open-problem-3 experiment: the trace's
// clients are split into the given number of populations, each behind
// its own L1 of (fraction×MaxNeeded)/populations, sharing one infinite
// second-level cache; the result quantifies cross-population commonality
// and the hit-rate gain over private second levels.
func SharedL2Study(tr *Trace, base *sim.Exp1Result, populations int, fraction float64, seed uint64) *sim.Exp5Result {
	return sim.Experiment5(tr, base, populations, fraction, seed)
}

// NewExpiredFirst wraps a policy with Harvest-style expiry-aware removal
// (§5 open problem 4): expired documents are always removed first.
func NewExpiredFirst(inner Policy) Policy { return policy.NewExpiredFirst(inner) }

// ICP re-exports: the live proxy's sibling-cooperation protocol (the
// Harvest arrangement of the paper's reference [8]).
type (
	// ICPSibling describes one cooperating cache.
	ICPSibling = proxy.Sibling
	// ICPResponder answers ICP queries for a proxy store over UDP.
	ICPResponder = proxy.ICPResponder
)

// NewICPResponder starts answering ICP queries for store on addr
// (e.g. "127.0.0.1:3130"); Close it to release the socket.
func NewICPResponder(store ProxyObjectStore, addr string) (*ICPResponder, error) {
	return proxy.NewICPResponder(store, addr)
}

// Trace transformations (the operations §2's collection methodology
// implies: merging concurrent captures, client subsets, measurement
// windows).

// MergeTraces combines traces into one ordered by request time.
func MergeTraces(name string, traces ...*Trace) *Trace { return trace.Merge(name, traces...) }

// FilterTraceClients keeps only requests whose client passes keep.
func FilterTraceClients(t *Trace, keep func(client string) bool) *Trace {
	return trace.FilterClients(t, keep)
}

// WindowTrace keeps requests with day index in [fromDay, toDay].
func WindowTrace(t *Trace, fromDay, toDay int) *Trace { return trace.Window(t, fromDay, toDay) }

// RebaseTrace shifts a trace to start at newStart's midnight.
func RebaseTrace(t *Trace, newStart int64) *Trace { return trace.Rebase(t, newStart) }

// LatencyStudy runs the Experiment 6 extension: the paper's third
// criterion (user-perceived latency) priced under a synthetic network
// model (nil = 1995-era defaults), reporting each policy's transfer time
// avoided.
func LatencyStudy(tr *Trace, base *sim.Exp1Result, specs []string, fraction float64, model *sim.NetModel, seed uint64) (*sim.Exp6Result, error) {
	return sim.Experiment6(tr, base, specs, fraction, model, seed)
}

// WorkloadFromJSON decodes a custom workload definition (see
// internal/workload's JSONConfig for the schema; cmd/tracegen -config
// accepts the same format).
func WorkloadFromJSON(r io.Reader) (WorkloadConfig, error) { return workload.FromJSON(r) }

// GenerateCustom synthesizes and validates a custom workload.
func GenerateCustom(cfg WorkloadConfig) (*Trace, *trace.ValidateStats, error) {
	return workload.GenerateValidated(cfg)
}
