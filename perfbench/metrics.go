package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one parsed GET /metrics exposition: plain series by their
// full name (labels included, in exposition order), and histogram
// buckets by series name without the le label.
type scrape struct {
	series  map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le    float64
	count float64
}

// parseScrape reads the Prometheus text exposition the server renders.
func parseScrape(raw []byte) (scrape, error) {
	s := scrape{series: map[string]float64{}, buckets: map[string][]bucket{}}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return scrape{}, fmt.Errorf("metrics: malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return scrape{}, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		if i := strings.Index(name, "_bucket{"); i >= 0 {
			j := strings.LastIndex(name, `le="`)
			if j < 0 {
				return scrape{}, fmt.Errorf("metrics: bucket without le: %q", line)
			}
			leStr := strings.TrimSuffix(name[j+4:], `"}`)
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					return scrape{}, fmt.Errorf("metrics: line %q: %w", line, err)
				}
			}
			key := name[:i] + "{" + strings.TrimSuffix(name[i+8:j], ",") + "}"
			key = strings.TrimSuffix(key, "{}")
			s.buckets[key] = append(s.buckets[key], bucket{le: le, count: v})
			continue
		}
		s.series[name] = v
	}
	return s, sc.Err()
}

// delta is after minus before, series by series (histogram buckets
// too); a series absent before counts from zero.
func delta(before, after scrape) scrape {
	d := scrape{series: map[string]float64{}, buckets: map[string][]bucket{}}
	for k, v := range after.series {
		d.series[k] = v - before.series[k]
	}
	for k, bs := range after.buckets {
		prev := before.buckets[k]
		out := make([]bucket, len(bs))
		for i, b := range bs {
			out[i] = b
			if i < len(prev) {
				out[i].count -= prev[i].count
			}
		}
		d.buckets[k] = out
	}
	return d
}

// sum adds two scrapes series by series (two replicas' deltas).
func sum(a, b scrape) scrape {
	out := scrape{series: map[string]float64{}, buckets: map[string][]bucket{}}
	for _, s := range []scrape{a, b} {
		for k, v := range s.series {
			out.series[k] += v
		}
		for k, bs := range s.buckets {
			cur := out.buckets[k]
			if cur == nil {
				cur = make([]bucket, len(bs))
				for i := range bs {
					cur[i].le = bs[i].le
				}
			}
			for i := range bs {
				cur[i].count += bs[i].count
			}
			out.buckets[k] = cur
		}
	}
	return out
}

// total sums family name across its label sets.
func (s scrape) total(name string) float64 {
	return s.series[name] + s.prefixed(name+"{")
}

// prefixed sums every series whose full name starts with prefix.
func (s scrape) prefixed(prefix string) float64 {
	var v float64
	for k, x := range s.series {
		if strings.HasPrefix(k, prefix) {
			v += x
		}
	}
	return v
}

// quantileMS interpolates quantile q (0..1) of the histogram series
// selected by match over its cumulative buckets (seconds), in
// milliseconds, the way Prometheus' histogram_quantile does. Series
// matching match are merged first. Zero when the histogram is empty.
func (s scrape) quantileMS(match func(key string) bool, q float64) float64 {
	var merged []bucket
	keys := make([]string, 0, len(s.buckets))
	for k := range s.buckets {
		if match(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		bs := s.buckets[k]
		if merged == nil {
			merged = make([]bucket, len(bs))
			for i := range bs {
				merged[i].le = bs[i].le
			}
		}
		for i := range bs {
			merged[i].count += bs[i].count
		}
	}
	if len(merged) == 0 || merged[len(merged)-1].count <= 0 {
		return 0
	}
	total := merged[len(merged)-1].count
	rank := q * total
	lower, prevCount := 0.0, 0.0
	for _, b := range merged {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower * 1000
			}
			inBucket := b.count - prevCount
			if inBucket <= 0 {
				return b.le * 1000
			}
			return (lower + (b.le-lower)*(rank-prevCount)/inBucket) * 1000
		}
		lower, prevCount = b.le, b.count
	}
	return lower * 1000
}

// hasLabel selects histogram series of family name carrying label.
func hasLabel(name, label string) func(string) bool {
	return func(k string) bool {
		return (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, label)
	}
}

// family selects every histogram series of family name.
func family(name string) func(string) bool {
	return func(k string) bool { return k == name || strings.HasPrefix(k, name+"{") }
}

// runtimeSample is the Go runtime's allocation and GC counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	return out
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// latencies collects per-operation durations.
type latencies []time.Duration

// pct is the nearest-rank percentile in milliseconds (0 when empty).
func (l latencies) pct(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return float64(s[idx]) / float64(time.Millisecond)
}

// tailPct is the highest of the standard tail percentiles that still
// has at least ten samples beyond it, or 0 when none has.
func (l latencies) tailPct() float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(l))*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// median of float values (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
