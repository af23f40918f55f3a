// Package workload synthesizes the paper's five Virginia Tech traces.
//
// The original logs (Undergrad, Graduate, Classroom, Backbone-Remote,
// Backbone-Local; §2 of the paper) are not publicly available, so each
// workload is replaced by a deterministic generator calibrated to every
// statistic the paper publishes about it:
//
//   - duration, valid request count and bytes transferred (§2),
//   - the file-type mix by references and by bytes (Table 4),
//   - MaxNeeded, the cache size at which no removal ever occurs (§4.1),
//   - the implied infinite-cache hit rate (Figs. 3–7),
//   - URL/server popularity concentration (Figs. 1–2, Zipf),
//   - the document-size distribution shape (Fig. 13),
//   - calendar structure: weekly cycles, the semester break and fall
//     surge in U, the 4-day class week and final-exam review in C,
//     the end-of-semester review in G (§4.1).
//
// The generator is an independent-reference model with document birth:
// each request either mints a never-seen URL (probability NewDocProb of
// its type) or re-references an existing URL drawn by a Zipf law over
// the type's catalog. Per-type NewDocProb values are solved from two
// published constraints — Σ α·refShare = overall first-reference
// fraction (1 − infinite HR) and Σ α·byteShare = MaxNeeded/TotalBytes —
// so the emergent MaxNeeded and maximum hit rates land near the paper's.
package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"webcache/internal/rng"
	"webcache/internal/trace"
)

// TypeSpec calibrates one media type of a workload.
type TypeSpec struct {
	Type      trace.DocType
	RefShare  float64 // Table 4 %Refs / 100
	ByteShare float64 // Table 4 %Bytes / 100
	// NewDocProb is the probability that a request of this type mints a
	// new URL (the α_t solved in the package comment).
	NewDocProb float64
	// SizeSigma is the log-space standard deviation of the lognormal
	// document-size distribution; the mean is derived from RefShare,
	// ByteShare and the workload totals.
	SizeSigma float64
	// RecencyBias is the probability that a re-reference of this type
	// goes to one of the type's recently minted documents instead of a
	// Zipf draw over the whole catalog. It models the paper's Fig. 14
	// observation that large (audio/video) files receive repeated
	// references hours apart, without changing the byte or uniqueness
	// calibration (the selected document's size is identically
	// distributed either way).
	RecencyBias float64
}

// Config fully describes a synthetic workload.
type Config struct {
	Name       string
	Seed       uint64
	Days       int
	Requests   int   // target number of valid requests at Scale 1.0
	TotalBytes int64 // target bytes transferred at Scale 1.0

	Types []TypeSpec

	// ZipfS is the popularity exponent over each type's catalog;
	// UniformMix is the probability of drawing uniformly instead,
	// flattening the tail.
	ZipfS      float64
	UniformMix float64

	// Servers is the server-pool size; ServerZipfS skews URL-to-server
	// assignment (Fig. 1). AudioServer forces every audio URL onto
	// server 1 (the BR workload's single popular audio site).
	Servers     int
	ServerZipfS float64
	AudioServer bool

	Domain  string // server DNS suffix, e.g. "cs.vt.edu"
	Clients int    // client-pool size

	// StartDay is the Unix time of the trace's first midnight.
	StartDay int64

	// DayWeight returns the relative request volume of day d (0-based);
	// nil means uniform. Zero-weight days get no requests (Classroom).
	DayWeight func(d int) float64
	// NewDocBoost returns a multiplier on NewDocProb for day d; nil
	// means 1. It models semester effects on reference locality.
	NewDocBoost func(d int) float64

	// SizeChangeProb is the per-re-reference probability that the
	// document was modified to a new size (§1.1 reports 0.5%–4.1%).
	SizeChangeProb float64
	// ZeroSizeProb is the per-re-reference probability that the log
	// records size 0 (the validator inherits the last known size).
	ZeroSizeProb float64
	// NoiseFrac adds this fraction of invalid lines (non-200 statuses
	// and zero-size first references) on top of the valid requests.
	NoiseFrac float64

	// Extended marks the trace as carrying Last-Modified times (BR, BL).
	Extended bool

	// Scale multiplies per-day request volume; 1.0 reproduces the paper
	// scale, smaller values give cheap benchmark-sized traces with the
	// same per-request statistics. Zero means 1.0.
	Scale float64
}

// scaled returns the effective total valid-request target.
func (c *Config) scaled() int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	n := int(math.Round(float64(c.Requests) * s))
	if n < 1 {
		n = 1
	}
	return n
}

// MeanSize returns the calibrated mean document size of type spec t.
// Byte shares are normalized to sum to one: Table 4's U column sums to
// 128.23% in the published text (an inconsistency in the paper; the
// other four columns sum to ~100%), so shares are treated as relative
// weights.
func (c *Config) MeanSize(t TypeSpec) float64 {
	if t.RefShare <= 0 {
		return 1
	}
	var byteSum float64
	for _, ts := range c.Types {
		byteSum += ts.ByteShare
	}
	if byteSum <= 0 {
		byteSum = 1
	}
	return float64(c.TotalBytes) * (t.ByteShare / byteSum) / (float64(c.Requests) * t.RefShare)
}

// doc is one catalog entry during generation.
type doc struct {
	url     string
	size    int64
	lastMod int64
}

// typeState is the per-type generation state.
type typeState struct {
	spec     TypeSpec
	meanSize float64
	sizeDist *rng.LogNormal
	docs     []doc
	zipf     *rng.Zipf
	zipfN    int
	ext      string
	nextID   int
}

const (
	minDocSize = 64
	maxDocSize = 32 << 20
)

// Generate produces the raw synthetic trace (including invalid noise
// lines). Run trace.Validate (or trace.ValidateOwned, which reuses the
// raw array) on it before simulation, exactly as the paper validates
// its logs; GenerateValidated does both at once.
func Generate(cfg Config) (*trace.Trace, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.run(nil), nil
}

// GenerateValidated generates cfg and applies the §1.1 validation,
// returning the simulator-ready trace and the validation statistics.
// Validation runs on its own goroutine one finished day behind the
// generator, writing the kept requests over the raw array.
func GenerateValidated(cfg Config) (*trace.Trace, *trace.ValidateStats, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Sized to the number of sends: the generator never waits for the
	// validator.
	dayEnds := make(chan int, len(g.days))
	var valid *trace.Trace
	var stats *trace.ValidateStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := trace.NewValidator(g.reqs[:0], len(g.reqs))
		lo := 0
		for hi := range dayEnds {
			v.Add(g.reqs[lo:hi])
			lo = hi
		}
		valid, stats = v.Trace(cfg.Name, cfg.StartDay)
	}()
	raw := g.run(dayEnds)
	close(dayEnds)
	<-done
	// Release the dropped lines' strings still held past the kept prefix.
	clear(raw.Requests[len(valid.Requests):])
	return valid, stats, nil
}

// newGenerator checks cfg, splits its seed into streams, builds the
// samplers, draws the per-day budget and allocates the raw array.
func newGenerator(cfg Config) (*generator, error) {
	if cfg.Days < 1 || cfg.Requests < 1 || cfg.TotalBytes < 1 {
		return nil, fmt.Errorf("workload %q: need positive Days/Requests/TotalBytes", cfg.Name)
	}
	var refSum float64
	for _, t := range cfg.Types {
		refSum += t.RefShare
	}
	if math.Abs(refSum-1) > 0.02 {
		return nil, fmt.Errorf("workload %q: type ref shares sum to %.3f, want 1", cfg.Name, refSum)
	}

	base := rng.New(cfg.Seed)
	rTypes := base.Split()   // type selection
	rDocs := base.Split()    // new-vs-old and popularity draws
	rSizes := base.Split()   // size draws
	rTimes := base.Split()   // timestamps
	rNoise := base.Split()   // invalid lines
	rClients := base.Split() // client selection
	rServers := base.Split() // server assignment

	// Per-type state.
	states := make([]*typeState, len(cfg.Types))
	weights := make([]float64, len(cfg.Types))
	for i, spec := range cfg.Types {
		mean := cfg.MeanSize(spec)
		sigma := spec.SizeSigma
		if sigma <= 0 {
			sigma = 1.2
		}
		states[i] = &typeState{
			spec:     spec,
			meanSize: mean,
			sizeDist: rng.NewLogNormalMean(rSizes, mean, sigma),
			ext:      extFor(spec.Type),
		}
		weights[i] = spec.RefShare
	}
	typePick, err := rng.NewCategorical(rTypes, weights)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", cfg.Name, err)
	}

	serverZipf, err := rng.NewZipf(rServers, int64(max(cfg.Servers, 1)), nz(cfg.ServerZipfS, 1.0))
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", cfg.Name, err)
	}
	clientZipf, err := rng.NewZipf(rClients, int64(max(cfg.Clients, 1)), 0.6)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", cfg.Name, err)
	}

	g := &generator{
		cfg: &cfg, states: states, typePick: typePick,
		serverZipf: serverZipf, clientZipf: clientZipf,
		rDocs: rDocs, rSizes: rSizes, rTimes: rTimes, rNoise: rNoise,
	}
	// Per-day request budget.
	total := 0
	for day, n := range splitByDay(cfg, rTimes) {
		if n == 0 {
			continue
		}
		noise := 0
		if cfg.NoiseFrac > 0 {
			noise = int(float64(n) * cfg.NoiseFrac)
		}
		g.days = append(g.days, dayBudget{day: day, valid: n, noise: noise})
		total += n + noise
	}
	// At its exact length the array never moves, so GenerateValidated's
	// validator can work in it behind the generator.
	g.reqs = make([]trace.Request, total)
	return g, nil
}

// dayBudget is one day's share of the trace: valid requests and noise
// lines. Days without valid requests have no budget.
type dayBudget struct {
	day, valid, noise int
}

// Stream buffers. A day's times are one chunk, and the time stream
// runs at most timeChunks days ahead. Client names come in chunks of
// clientChunk, at most clientChunks of them ahead, so the names in
// flight take 64 KiB instead of 16 bytes per request. Of 3, 8, 16 and
// 32 days and chunks of 512, 1,024, 2,048 and 4,096 names, 8 and 1,024
// set the five workloads up fastest (DESIGN.md §16).
const (
	timeChunks   = 8
	clientChunk  = 1024
	clientChunks = 4
)

// run synthesizes the trace into g.reqs and, when dayDone is not nil,
// sends on it the end index of each day as soon as the day is written.
// The time and client streams are drawn on their own goroutines, which
// have ended when run returns.
func (g *generator) run(dayDone chan<- int) *trace.Trace {
	times := newPipe[int64](timeChunks)
	g.names = newPipe[string](clientChunks)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		drawTimes(times, g.days, g.cfg.StartDay, g.rTimes)
	}()
	go func() {
		defer wg.Done()
		drawClients(g.names, g.clientZipf, g.cfg.Domain, g.cfg.Clients, len(g.reqs))
	}()

	k := 0
	for _, d := range g.days {
		ts := <-times.full
		boost := 1.0
		if g.cfg.NewDocBoost != nil {
			boost = g.cfg.NewDocBoost(d.day)
		}
		// Interleave noise uniformly among valid requests.
		noiseLeft := d.noise
		for i, t := range ts {
			remaining := len(ts) - i
			if noiseLeft > 0 && g.rNoise.Float64() < float64(noiseLeft)/float64(remaining) {
				g.reqs[k] = g.noiseRequest(t)
				noiseLeft--
			} else {
				g.reqs[k] = g.validRequest(boost, t)
			}
			k++
		}
		times.free <- ts
		if dayDone != nil {
			dayDone <- k
		}
	}
	wg.Wait()
	return &trace.Trace{Name: g.cfg.Name, Start: g.cfg.StartDay, Requests: g.reqs}
}

// A pipe carries chunks from one producer goroutine to the generator,
// in order, and hands their buffers back for reuse. It holds as many
// buffers as it was made with.
type pipe[T any] struct {
	full, free chan []T
}

func newPipe[T any](buffers int) pipe[T] {
	p := pipe[T]{full: make(chan []T, buffers), free: make(chan []T, buffers)}
	for i := 0; i < buffers; i++ {
		p.free <- nil
	}
	return p
}

// drawTimes draws each budgeted day's request times, in day order, and
// sends them on p.
func drawTimes(p pipe[int64], days []dayBudget, start int64, r *rng.Rand) {
	for _, d := range days {
		p.full <- dayTimes((<-p.free)[:0], start, d.day, d.valid+d.noise, r)
	}
}

// maxClientNames bounds the client-name table; ranks beyond it (only a
// configuration with a larger client pool draws them) are formatted on
// each request.
const maxClientNames = 1 << 16

// drawClients draws the client of each of n requests, in emission
// order, and sends their host names, client<rank>.<domain>, on p. Each
// name is formatted on the first use of its rank.
func drawClients(p pipe[string], z *rng.Zipf, domain string, clients, n int) {
	names := make([]string, min(max(clients, 1), maxClientNames)+1)
	var buf []byte
	for n > 0 {
		chunk := <-p.free
		if chunk == nil {
			chunk = make([]string, 0, clientChunk)
		}
		chunk = chunk[:0]
		for len(chunk) < min(n, clientChunk) {
			rank := z.Rank()
			if rank < int64(len(names)) && names[rank] != "" {
				chunk = append(chunk, names[rank])
				continue
			}
			buf = append(buf[:0], "client"...)
			buf = strconv.AppendInt(buf, rank, 10)
			buf = append(buf, '.')
			buf = append(buf, domain...)
			name := string(buf)
			if rank < int64(len(names)) {
				names[rank] = name
			}
			chunk = append(chunk, name)
		}
		n -= len(chunk)
		p.full <- chunk
	}
}

// generator is the state of one Generate or GenerateValidated call.
// No call shares any of it with another, so workloads can be generated
// concurrently. Within a call, three kinds of goroutine use it:
//   - the caller draws the type, document, size, server and noise
//     streams and writes reqs;
//   - the goroutines run starts own rTimes and clientZipf and send
//     their draws back through pipes;
//   - GenerateValidated's validator reads and rewrites reqs below the
//     end of the last day run has reported.
type generator struct {
	cfg                    *Config
	states                 []*typeState
	typePick               *rng.Categorical
	serverZipf, clientZipf *rng.Zipf
	rDocs, rSizes, rNoise  *rng.Rand
	rTimes                 *rng.Rand
	days                   []dayBudget
	reqs                   []trace.Request
	// names carries the client names; chunk[next] is the next one.
	names pipe[string]
	chunk []string
	next  int
	// buf is the scratch space URLs are built in.
	buf []byte
}

// client returns the next request's client name.
func (g *generator) client() string {
	if g.next == len(g.chunk) {
		if g.chunk != nil {
			g.names.free <- g.chunk
		}
		g.chunk, g.next = <-g.names.full, 0
	}
	name := g.chunk[g.next]
	g.next++
	return name
}

// validRequest draws one valid (status 200) request at time ts.
func (g *generator) validRequest(boost float64, ts int64) trace.Request {
	st := g.states[g.typePick.Draw()]
	alpha := st.spec.NewDocProb * boost
	if alpha > 1 {
		alpha = 1
	}

	var d *doc
	fresh := len(st.docs) == 0 || g.rDocs.Float64() < alpha
	if fresh {
		d = g.mintDoc(st, ts)
	} else {
		d = pickDoc(st, g.rDocs, g.cfg)
		// Occasionally the origin document was modified to a new size
		// since the last reference (§1.1).
		if g.cfg.SizeChangeProb > 0 && g.rDocs.Float64() < g.cfg.SizeChangeProb {
			d.size = perturbSize(d.size, g.rSizes)
			d.lastMod = ts
		}
	}

	size := d.size
	if !fresh && g.cfg.ZeroSizeProb > 0 && g.rDocs.Float64() < g.cfg.ZeroSizeProb {
		size = 0 // validator will inherit the last known size
	}
	var lastMod int64
	if g.cfg.Extended {
		lastMod = d.lastMod
	}
	return trace.Request{
		Time:         ts,
		Client:       g.client(),
		URL:          d.url,
		Status:       200,
		Size:         size,
		Type:         st.spec.Type,
		LastModified: lastMod,
	}
}

// mintDoc creates a new catalog document for st, at
// http://s<server>.<domain><type prefix><id><type extension>.
func (g *generator) mintDoc(st *typeState, ts int64) *doc {
	srv := g.serverZipf.Rank()
	if g.cfg.AudioServer && st.spec.Type == trace.Audio {
		srv = 1
	}
	st.nextID++
	b := append(g.buf[:0], "http://s"...)
	b = strconv.AppendInt(b, srv, 10)
	b = append(b, '.')
	b = append(b, g.cfg.Domain...)
	b = append(b, pathPrefix(st.spec.Type)...)
	b = strconv.AppendInt(b, int64(st.nextID), 10)
	b = append(b, st.ext...)
	g.buf = b
	size := drawSize(st, g.rSizes)
	st.docs = append(st.docs, doc{url: string(b), size: size, lastMod: ts - 86400*int64(1+g.rSizes.Intn(60))})
	return &st.docs[len(st.docs)-1]
}

// recencyWindow is how many most-recently-minted documents a
// recency-biased re-reference chooses among.
const recencyWindow = 100

// pickDoc draws an existing document: with probability RecencyBias one
// of the recently minted documents, otherwise by Zipf popularity over
// birth order mixed with a uniform component.
func pickDoc(st *typeState, rDocs *rng.Rand, cfg *Config) *doc {
	n := len(st.docs)
	if b := st.spec.RecencyBias; b > 0 && rDocs.Float64() < b {
		w := recencyWindow
		if w > n {
			w = n
		}
		return &st.docs[n-1-rDocs.Intn(w)]
	}
	if cfg.UniformMix > 0 && rDocs.Float64() < cfg.UniformMix {
		return &st.docs[rDocs.Intn(n)]
	}
	// Rebuild the Zipf sampler lazily as the catalog grows.
	if st.zipf == nil || n > st.zipfN+st.zipfN/8 {
		z, err := rng.NewZipf(rDocs, int64(n), nz(cfg.ZipfS, 0.85))
		if err != nil {
			return &st.docs[rDocs.Intn(n)]
		}
		st.zipf, st.zipfN = z, n
	}
	rank := st.zipf.Rank()
	if rank > int64(n) {
		rank = int64(n)
	}
	return &st.docs[rank-1]
}

func drawSize(st *typeState, rSizes *rng.Rand) int64 {
	s := int64(math.Round(st.sizeDist.Draw()))
	if s < minDocSize {
		s = minDocSize
	}
	if s > maxDocSize {
		s = maxDocSize
	}
	return s
}

// perturbSize returns a size different from old, modelling a document
// edit.
func perturbSize(old int64, r *rng.Rand) int64 {
	factor := 0.8 + 0.45*r.Float64()
	s := int64(math.Round(float64(old) * factor))
	if s < minDocSize {
		s = minDocSize
	}
	if s == old {
		s++
	}
	return s
}

// noiseStatuses are the statuses of invalid lines; 302 stands for a
// zero-size 200 first reference.
var noiseStatuses = [...]int{304, 304, 304, 404, 403, 500, 302}

// noiseRequest emits an invalid line: a non-200 status, or a zero-size
// first reference, both of which §1.1 drops.
func (g *generator) noiseRequest(ts int64) trace.Request {
	status := noiseStatuses[g.rNoise.Intn(len(noiseStatuses))]
	kind, id := byte('n'), g.rNoise.Intn(1<<20)
	if status == 302 {
		// A zero-size 200 for a never-seen URL is also invalid (§1.1).
		status = 200
		kind, id = 'z', g.rNoise.Intn(1<<20)
	}
	b := append(g.buf[:0], "http://s1."...)
	b = append(b, g.cfg.Domain...)
	b = append(b, "/noise/"...)
	b = append(b, kind)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ".html"...)
	g.buf = b
	url := string(b)
	return trace.Request{
		Time:   ts,
		Client: g.client(),
		URL:    url,
		Status: status,
		Type:   trace.ClassifyURL(url),
	}
}

// splitByDay apportions the valid-request budget across days using
// DayWeight, with Poisson jitter.
func splitByDay(cfg Config, r *rng.Rand) []int {
	weights := make([]float64, cfg.Days)
	sum := 0.0
	for d := range weights {
		w := 1.0
		if cfg.DayWeight != nil {
			w = cfg.DayWeight(d)
		}
		if w < 0 {
			w = 0
		}
		weights[d] = w
		sum += w
	}
	counts := make([]int, cfg.Days)
	if sum == 0 {
		return counts
	}
	n := cfg.scaled()
	for d, w := range weights {
		if w == 0 {
			continue
		}
		counts[d] = r.Poisson(float64(n) * w / sum)
	}
	return counts
}

// dayTimes appends to times n request times within day d, shaped
// toward working hours (08:00–23:00 with a midday peak), sorted
// ascending.
func dayTimes(times []int64, start int64, day, n int, r *rng.Rand) []int64 {
	dayStart := start + int64(day)*86400
	for i := 0; i < n; i++ {
		// Sum of two uniforms gives a triangular peak at the middle of
		// the active window.
		frac := (r.Float64() + r.Float64()) / 2
		sec := 8*3600 + int64(frac*float64(15*3600))
		times = append(times, dayStart+sec)
	}
	slices.Sort(times)
	return times
}

func pathPrefix(t trace.DocType) string {
	switch t {
	case trace.Graphics:
		return "/img/g"
	case trace.Text:
		return "/doc/t"
	case trace.Audio:
		return "/audio/a"
	case trace.Video:
		return "/video/v"
	case trace.CGI:
		return "/cgi-bin/q"
	default:
		return "/misc/u"
	}
}

func extFor(t trace.DocType) string {
	switch t {
	case trace.Graphics:
		return ".gif"
	case trace.Text:
		return ".html"
	case trace.Audio:
		return ".au"
	case trace.Video:
		return ".mpg"
	case trace.CGI:
		return "" // cgi-bin path alone classifies as CGI
	default:
		return ".dat"
	}
}

func nz(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}
