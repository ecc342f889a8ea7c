package main

import (
	"sort"
	"time"
)

// median and quantile use the nearest-rank rule on a sorted copy; an
// empty sample reads 0.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// interquartileMean is the mean of the middle half of xs.
func interquartileMean(xs []float64) float64 {
	if len(xs) < 4 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// ratio is a/b, 0 when b is 0 (the layer did no work of that kind).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Steadied statistics. A run is many short windows, and the median over
// windows keeps a burst of interference from the rest of the machine (or
// a garbage-collection cycle) inside the windows it hits.
const (
	rateWindow = time.Second // ops_per_s
	chunkOps   = 250         // query_p50_ms, write_p50_ms
)

// windowCounts appends, for each whole rateWindow of a phase that ran
// for elapsed, the ops completed in it per second.
//
// ops_per_s is the interquartile mean of these windows: as robust as
// their median, but not rounded to a whole count.
func windowCounts(rates []float64, done []time.Duration, elapsed time.Duration) []float64 {
	n := int(elapsed / rateWindow)
	if n == 0 {
		return append(rates, float64(len(done))/elapsed.Seconds())
	}
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d / rateWindow); i < n {
			counts[i]++
		}
	}
	for _, c := range counts {
		rates = append(rates, c/rateWindow.Seconds())
	}
	return rates
}

// chunkMedians appends the median latency of each run of chunkOps
// consecutive ops (in completion order) of one phase; a remainder joins
// the last chunk.
func chunkMedians(out []float64, lat []float64) []float64 {
	n := len(lat) / chunkOps
	if n == 0 {
		if len(lat) > 0 {
			out = append(out, median(lat))
		}
		return out
	}
	for i := 0; i < n; i++ {
		hi := (i + 1) * chunkOps
		if i == n-1 {
			hi = len(lat)
		}
		out = append(out, median(lat[i*chunkOps:hi]))
	}
	return out
}
