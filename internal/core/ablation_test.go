package core

import (
	"testing"

	"roadknn/internal/gen"
	"roadknn/internal/roadnet"
)

// TestAblationEnginesAreCorrect runs the ablation variants through a short
// randomized simulation against the oracle: they must be exactly as
// correct as the real engines (only slower).
func TestAblationEnginesAreCorrect(t *testing.T) {
	w := newLockstepWorldOf(t, 55, 80, 25, 6, 4, func(build func() *roadnet.Network) []Engine {
		return []Engine{NewIMAUnfiltered(build()), NewGMANaive(build()), NewOVH(build())}
	})
	for ts := 1; ts <= 15; ts++ {
		w.step(ts, 0.3, 0.3, 0.1)
	}
}

func TestAblationNames(t *testing.T) {
	net := roadnet.NewNetwork(gen.SanFranciscoLike(50, 1))
	if got := NewIMAUnfiltered(net).Name(); got != "IMA-NF" {
		t.Fatalf("Name = %q", got)
	}
	net2 := roadnet.NewNetwork(gen.SanFranciscoLike(50, 1))
	if got := NewGMANaive(net2).Name(); got != "GMA-naive" {
		t.Fatalf("Name = %q", got)
	}
}
