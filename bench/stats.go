package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"roadknn/internal/core"
)

// percentile returns the nearest-rank q-quantile of xs (unsorted).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median averages the two middle values of an even-length sample, so a
// handful of set-up repeats is not biased low.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func hex32(v uint32) string { return fmt.Sprintf("%08x", v) }

// resultCRC checksums queries [0, n) of a non-serving engine in the
// snapshot's canonical row layout, so library runs print a result CRC too.
func resultCRC(eng core.Engine, n int) uint32 {
	var buf []byte
	for id := 0; id < n; id++ {
		res := eng.Result(core.QueryID(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res)))
		for _, nb := range res {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nb.Obj))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(nb.Dist))
		}
	}
	return crc32.ChecksumIEEE(buf)
}
