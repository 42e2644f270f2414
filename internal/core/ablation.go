package core

import (
	"roadknn/internal/roadnet"
)

// This file contains ablation variants of the two fixed placements, used
// by the ablation experiments abl-il (influence-list filtering) and abl-seq
// (GMA's bounded in-sequence walk) to quantify those two design choices.
// They are correct engines — only slower — so the correctness suite
// runs them too.

// NewIMAUnfiltered creates IMA with influence-list filtering disabled, with
// default options: every update is processed against every query (the tree
// reuse machinery is kept). It quantifies how much of IMA's advantage comes
// from ignoring irrelevant updates (§4.2's central claim).
func NewIMAUnfiltered(net *roadnet.Network) *Incremental {
	return NewIMAUnfilteredWith(net, Options{})
}

// NewIMAUnfilteredWith creates the ablation engine with the given options.
func NewIMAUnfilteredWith(net *roadnet.Network, o Options) *Incremental {
	e := newIncremental("IMA-NF", net, o, fixed(Direct))
	e.set.unfiltered = true
	return e
}

// NewGMANaive creates GMA with the bounded in-sequence expansion replaced
// by the naive application of Lemma 1, with default options: every
// evaluation scans all objects in the whole sequence and merges both
// endpoint NN sets unconditionally. The paper's §5 argues this "can be very
// expensive, because a sequence may contain numerous edges and objects".
func NewGMANaive(net *roadnet.Network) *Incremental {
	return NewGMANaiveWith(net, Options{})
}

// NewGMANaiveWith creates the ablation engine with the given options.
func NewGMANaiveWith(net *roadnet.Network, o Options) *Incremental {
	e := newIncremental("GMA-naive", net, o, fixed(Grouped))
	e.naiveEval = true
	return e
}
