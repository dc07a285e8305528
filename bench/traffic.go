package main

import (
	"encoding/json"
	"math/rand"
	"time"
)

// Every input the stack sees is made here, from the seed alone, before
// any clock starts: the program under test receives only these lists.

// genRequest is one generation request of a work list.
type genRequest struct {
	Class  string `json:"class,omitempty"`
	Prompt []int  `json:"prompt"`
	MaxNew int    `json:"max_tokens"`
	// Due is the open-loop send time relative to the start of traffic
	// (zero in closed-loop lists).
	Due time.Duration `json:"-"`
	// Body is the pre-rendered POST body, so the dispatcher does no
	// marshalling between due times.
	Body []byte `json:"-"`
}

func randTokens(rng *rand.Rand, n, vocab int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(vocab)
	}
	return out
}

// spread returns n values covering lo..hi evenly, in seeded order.
// Every seed draws from the same multiset: a seed changes which request
// is long and what it says, not how much work the list holds, so
// run-to-run differences are the program's and not the dice's.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo+1)/n
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// latencyPrompts is the §III-B protocol's input: a few fixed-length
// prompts the generations cycle through.
func latencyPrompts(seed int64, n, promptLen, vocab int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = randTokens(rng, promptLen, vocab)
	}
	return out
}

// batchList is the offline throughput list: n requests with promptLen
// tokens in, every second one opening with the same prefixLen-token
// prefix, and minOut..maxOut tokens out. Every fourth request asks for
// the middle length, so that the median reply time is the time of that
// one shape and not of whichever length a seed drops in the middle.
func batchList(seed int64, n, promptLen, prefixLen, minOut, maxOut, vocab int) []genRequest {
	rng := rand.New(rand.NewSource(seed))
	prefix := randTokens(rng, prefixLen, vocab)
	outs := spread(rng, n-n/4, minOut, maxOut)
	for len(outs) < n {
		outs = append(outs, (minOut+maxOut)/2)
	}
	rng.Shuffle(n, func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
	list := make([]genRequest, n)
	for i := range list {
		p := randTokens(rng, promptLen, vocab)
		if i%2 == 1 {
			copy(p, prefix)
		}
		list[i] = genRequest{Prompt: p, MaxNew: outs[i]}
	}
	return list
}

// fleetSchedule is the open-loop list: a warm-up stretch, then
// round(rate·span) timed arrivals, each stretch with exponential gaps
// scaled to its length (a Poisson process conditioned on its count).
// 60 % interactive (16–32 in, 8–16 out), 25 % rag (one of four shared
// 96-token documents plus 8–32 unique tokens, 8–16 out), 15 % batch
// (16 in, 40–64 out). It returns the list in due order and the index of
// the first timed request.
func fleetSchedule(seed int64, rate float64, warm, span time.Duration, vocab int) ([]genRequest, int) {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]int, 4)
	for i := range docs {
		docs[i] = randTokens(rng, 96, vocab)
	}
	var list []genRequest
	stretch := func(offset, length time.Duration) {
		n := int(rate*length.Seconds() + 0.5)
		nRag, nBatch := n*25/100, n*15/100
		reqs := make([]genRequest, 0, n)
		add := func(class string, count, inLo, inHi, outLo, outHi int) {
			ins, outs := spread(rng, count, inLo, inHi), spread(rng, count, outLo, outHi)
			for i := 0; i < count; i++ {
				r := genRequest{Class: class, Prompt: randTokens(rng, ins[i], vocab), MaxNew: outs[i]}
				if class == "rag" {
					r.Prompt = append(append([]int(nil), docs[rng.Intn(len(docs))]...), r.Prompt...)
				}
				reqs = append(reqs, r)
			}
		}
		add("interactive", n-nRag-nBatch, 16, 32, 8, 16)
		add("rag", nRag, 8, 32, 8, 16)
		add("batch", nBatch, 16, 16, 40, 64)
		rng.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		gaps := make([]float64, n+1)
		total := 0.0
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			total += gaps[i]
		}
		at := 0.0
		for i := range reqs {
			at += gaps[i]
			reqs[i].Due = offset + time.Duration(at/total*float64(length))
			// Marshalling a struct of ints and strings cannot fail.
			reqs[i].Body, _ = json.Marshal(reqs[i])
		}
		list = append(list, reqs...)
	}
	stretch(0, warm)
	first := len(list)
	stretch(warm, span)
	return list, first
}
