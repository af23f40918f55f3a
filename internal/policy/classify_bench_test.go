package policy

import (
	"fmt"
	"testing"

	"webcache/internal/trace"
)

// benchClassifyURLs is a pool of URLs across the classifier's suffix
// classes, including the cgi-bin/query forms ExcludeDynamic probes.
func benchClassifyURLs() []string {
	urls := make([]string, 512)
	for i := range urls {
		switch i % 4 {
		case 0:
			urls[i] = fmt.Sprintf("http://s%d.example/img/pic%d.gif", i%7, i)
		case 1:
			urls[i] = fmt.Sprintf("http://s%d.example/doc%d.html", i%7, i)
		case 2:
			urls[i] = fmt.Sprintf("http://s%d.example/cgi-bin/search?q=%d", i%7, i)
		default:
			urls[i] = fmt.Sprintf("http://s%d.example/media/clip%d.mpg", i%7, i)
		}
	}
	return urls
}

// BenchmarkClassifyPerRequest measures re-classifying the URL on every
// request, the pre-interning cost the per-ID tables remove: the string
// engine's ExcludeDynamic check paid this suffix scan on each insert.
func BenchmarkClassifyPerRequest(b *testing.B) {
	urls := benchClassifyURLs()
	b.ReportAllocs()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = trace.IsDynamic(urls[i%len(urls)]) != sink
	}
	_ = sink
}

// BenchmarkClassifyPerID measures the interned engine's replacement: a
// one-time classification per distinct URL amortized into a table, with
// each request paying only an indexed load.
func BenchmarkClassifyPerID(b *testing.B) {
	urls := benchClassifyURLs()
	dynamic := make([]bool, len(urls))
	for id, u := range urls {
		dynamic[id] = trace.IsDynamic(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = dynamic[i%len(dynamic)] != sink
	}
	_ = sink
}
