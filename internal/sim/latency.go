package sim

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/stats"
	"webcache/internal/trace"
)

// Experiment 6 (extension): the paper's third criterion. §1 lists three
// quantities a proxy can reduce — requests reaching servers, network
// volume, and "the latency that an end-user experiences"; the authors
// could only study the first two ("our traces have insufficient
// information on timing... a measure such as transfer time avoided is
// appropriate"). With a synthetic network cost model the third becomes
// measurable: every request is priced as connection setup plus transfer
// at the bottleneck bandwidth, and each policy is scored by the fraction
// of total retrieval time its cache avoids. This also evaluates the §5
// refetch-latency sorting key against SIZE on the objective it was
// designed for.

// NetModel prices retrievals with 1995-era constants.
type NetModel struct {
	// LocalRTT and LocalBandwidth describe the client↔proxy path.
	LocalRTT       float64 // seconds
	LocalBandwidth float64 // bytes/second
	// MinRTT/MaxRTT bound per-server round trips; a server's RTT is a
	// deterministic hash of its name (nearby campus servers to
	// transatlantic links).
	MinRTT, MaxRTT float64
	// WANBandwidth is the bottleneck transfer rate from origin servers.
	WANBandwidth float64
}

// DefaultNetModel returns constants plausible for 1995: 10 ms LAN RTT,
// 1 MB/s LAN, 50–600 ms WAN RTTs, 25 kB/s WAN transfer.
func DefaultNetModel() *NetModel {
	return &NetModel{
		LocalRTT:       0.010,
		LocalBandwidth: 1 << 20,
		MinRTT:         0.050,
		MaxRTT:         0.600,
		WANBandwidth:   25 * 1024,
	}
}

// ServerRTT returns the deterministic round-trip time to a server.
func (m *NetModel) ServerRTT(server string) float64 {
	h := fnv.New32a()
	h.Write([]byte(server))
	frac := float64(h.Sum32()%1000) / 999
	return m.MinRTT + frac*(m.MaxRTT-m.MinRTT)
}

// OriginFetch prices retrieving size bytes from the named server
// through the proxy: TCP setup + request round trip, then the transfer.
func (m *NetModel) OriginFetch(server string, size int64) float64 {
	rtt := m.ServerRTT(server)
	return 2*rtt + float64(size)/m.WANBandwidth + m.CacheServe(size)
}

// CacheServe prices serving size bytes from the proxy to the client.
func (m *NetModel) CacheServe(size int64) float64 {
	return 2*m.LocalRTT + float64(size)/m.LocalBandwidth
}

// RefetchLatency is the LatencyOf hook for core.Config: the estimated
// cost of refetching a document, which the KeyLatency policy sorts on.
func (m *NetModel) RefetchLatency(url string, size int64) float64 {
	return m.OriginFetch(serverOf(url), size)
}

// serverOf extracts the host from an absolute URL.
func serverOf(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}

// LatencyRun scores one policy on the latency criterion.
type LatencyRun struct {
	Policy string
	// NoCache and WithCache are total user-perceived retrieval seconds.
	NoCache   float64
	WithCache float64
	// SavedFraction is the paper's "transfer time avoided": the share of
	// retrieval time the cache eliminated.
	SavedFraction float64
	HR, WHR       float64
}

// Exp6Result compares policies on latency saved.
type Exp6Result struct {
	Workload string
	Fraction float64
	Model    *NetModel
	Runs     []*LatencyRun
}

// Experiment6 replays tr through each policy spec at fraction×MaxNeeded
// and measures transfer time avoided under the model (nil = defaults).
func Experiment6(tr *trace.Trace, base *Exp1Result, specs []string, fraction float64, model *NetModel, seed uint64) (*Exp6Result, error) {
	return Experiment6R(DefaultRunner(), tr, base, specs, fraction, model, seed)
}

// Experiment6R is Experiment6 on an explicit runner: specs are
// validated up front, then each priced replay fans out with its policy
// and cache built inside the worker.
func Experiment6R(r *Runner, tr *trace.Trace, base *Exp1Result, specs []string, fraction float64, model *NetModel, seed uint64) (*Exp6Result, error) {
	if model == nil {
		model = DefaultNetModel()
	}
	for _, spec := range specs {
		if _, err := policy.Parse(spec, tr.Start); err != nil {
			return nil, fmt.Errorf("sim: experiment 6 policy %q: %w", spec, err)
		}
	}
	capacity := capacityFor(base, fraction)
	if Observer != nil {
		Observer.AddReplays(len(specs))
	}
	runs := RunAll(r, len(specs), func(i int) *LatencyRun {
		spec := specs[i]
		pol, err := policy.Parse(spec, tr.Start)
		if err != nil { // validated above; unreachable
			panic(err)
		}
		cfg := core.Config{
			Capacity:  capacity,
			Policy:    pol,
			Seed:      seed + uint64(i)*101,
			LatencyOf: model.RefetchLatency,
		}
		cache := core.New(cfg)
		run := &LatencyRun{Policy: spec}
		replay := func() {
			for j := range tr.Requests {
				req := &tr.Requests[j]
				cost := model.OriginFetch(serverOf(req.URL), req.Size)
				run.NoCache += cost
				if cache.Access(req) {
					run.WithCache += model.CacheServe(req.Size)
				} else {
					run.WithCache += cost
				}
			}
		}
		if o := Observer; o != nil {
			observeReplay(o, spec, tr.Name, capacity, replay, cache.Stats)
		} else {
			replay()
		}
		st := cache.Stats()
		run.HR = st.HitRate()
		run.WHR = st.WeightedHitRate()
		if run.NoCache > 0 {
			run.SavedFraction = 1 - run.WithCache/run.NoCache
		}
		return run
	})
	return &Exp6Result{Workload: tr.Name, Fraction: fraction, Model: model, Runs: runs}, nil
}

// RenderExp6 prints the latency comparison, best saver first.
func RenderExp6(r *Exp6Result) string {
	runs := make([]*LatencyRun, len(r.Runs))
	copy(runs, r.Runs)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].SavedFraction > runs[j].SavedFraction })
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 6 — workload %s, latency saved at %.0f%% of MaxNeeded\n", r.Workload, 100*r.Fraction)
	fmt.Fprintf(&b, "  (network model: WAN RTT %.0f-%.0f ms, WAN %.0f kB/s)\n",
		1000*r.Model.MinRTT, 1000*r.Model.MaxRTT, r.Model.WANBandwidth/1024)
	t := stats.NewTable("Policy", "Latency saved %", "HR %", "WHR %", "No-cache hours", "Cached hours")
	for _, run := range runs {
		t.AddRow(run.Policy,
			fmt.Sprintf("%.2f", 100*run.SavedFraction),
			fmt.Sprintf("%.1f", 100*run.HR),
			fmt.Sprintf("%.1f", 100*run.WHR),
			fmt.Sprintf("%.1f", run.NoCache/3600),
			fmt.Sprintf("%.1f", run.WithCache/3600))
	}
	b.WriteString(t.String())
	return b.String()
}
