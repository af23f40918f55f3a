package core

import "webcache/internal/trace"

// Partitioned models Experiment 4: a cache split into independent
// partitions, each with its own capacity and policy, with requests
// routed to a partition by a classification function. The paper's
// instance routes audio to one partition and everything else to the
// other, with the audio partition getting 1/4, 1/2 or 3/4 of the total.
type Partitioned struct {
	parts []*Cache
	route func(*trace.Request) int

	requests int64
	bytes    int64
}

// NewPartitioned builds a partitioned cache. route must return a valid
// index into configs for every request.
func NewPartitioned(configs []Config, route func(*trace.Request) int) *Partitioned {
	parts := make([]*Cache, len(configs))
	for i, cfg := range configs {
		parts[i] = New(cfg)
	}
	return &Partitioned{parts: parts, route: route}
}

// NewAudioPartitioned builds the paper's two-partition audio/non-audio
// cache: partition 0 caches audio documents, partition 1 everything
// else. audioCap and otherCap are the partition capacities in bytes;
// the policies are constructed by the caller (Experiment 4 uses SIZE
// with a random secondary in both).
func NewAudioPartitioned(audio, other Config) *Partitioned {
	return NewPartitioned([]Config{audio, other}, func(r *trace.Request) int {
		if r.Type == trace.Audio {
			return 0
		}
		return 1
	})
}

// Access routes the request to its partition and reports a hit.
func (p *Partitioned) Access(req *trace.Request) bool {
	p.requests++
	p.bytes += req.Size
	return p.parts[p.route(req)].Access(req)
}

// Partition returns partition i's cache for inspection.
func (p *Partitioned) Partition(i int) *Cache { return p.parts[i] }

// Requests returns the total requests processed.
func (p *Partitioned) Requests() int64 { return p.requests }

// BytesRequested returns the total bytes requested.
func (p *Partitioned) BytesRequested() int64 { return p.bytes }
