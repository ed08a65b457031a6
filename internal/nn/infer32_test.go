package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randomSeq32(rng *rand.Rand, steps, dim int) ([][]float64, [][]float32) {
	seq64 := make([][]float64, steps)
	seq32 := make([][]float32, steps)
	for t := range seq64 {
		seq64[t] = make([]float64, dim)
		seq32[t] = make([]float32, dim)
		for j := range seq64[t] {
			v := rng.NormFloat64()
			seq64[t][j] = v
			seq32[t][j] = float32(v)
		}
	}
	return seq64, seq32
}

// TestPredictBatchMatchesFloat64 is the float32 accuracy property test:
// across random networks (odd widths exercise every kernel tail) and
// random sequences, the batched float32 outputs must stay within 1e-5
// relative of the float64 training-path Predict.
func TestPredictBatchMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := []struct {
		in     int
		hidden []int
		out    int
	}{
		{6, []int{128, 64}, 2}, // the mitigation baseline shape
		{3, []int{17}, 2},
		{5, []int{33, 9}, 3},
		{1, []int{8, 8}, 1},
	}
	for _, shape := range shapes {
		net, err := NewNetwork(shape.in, shape.hidden, shape.out, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		const B = 5
		sc := net.NewInferScratch32(B)
		seqs64 := make([][][]float64, B)
		seqs32 := make([][][]float32, B)
		for b := 0; b < B; b++ {
			seqs64[b], seqs32[b] = randomSeq32(rng, 20, shape.in)
		}
		got := net.PredictBatchInto(seqs32, sc)
		for b := 0; b < B; b++ {
			want := net.Predict(seqs64[b])
			for k := range want {
				diff := math.Abs(float64(got[b][k]) - want[k])
				if diff > 1e-5*(1+math.Abs(want[k])) {
					t.Fatalf("shape %v batch %d out %d: float32 %v float64 %v (diff %g)",
						shape, b, k, got[b][k], want[k], diff)
				}
			}
		}
	}
}

// TestBatchCompositionIndependence pins the determinism contract: a
// sequence's outputs are bit-identical whether it runs alone
// (PredictInto32), in a small batch, or in a large batch alongside
// different neighbours.
func TestBatchCompositionIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net, err := NewNetwork(6, []int{32, 16}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const B = 8
	sc := net.NewInferScratch32(B)
	seqs := make([][][]float32, B)
	for b := range seqs {
		_, seqs[b] = randomSeq32(rng, 20, 6)
	}

	solo := make([][]float32, B)
	for b, seq := range seqs {
		solo[b] = append([]float32(nil), net.PredictInto32(seq, sc)...)
	}

	check := func(name string, batch [][][]float32, idx []int) {
		t.Helper()
		got := net.PredictBatchInto(batch, sc)
		for i, b := range idx {
			for k := range got[i] {
				if got[i][k] != solo[b][k] {
					t.Fatalf("%s: seq %d out %d: batched %v solo %v (must be bit-identical)",
						name, b, k, got[i][k], solo[b][k])
				}
			}
		}
	}
	check("full batch", seqs, []int{0, 1, 2, 3, 4, 5, 6, 7})
	check("pair", [][][]float32{seqs[3], seqs[6]}, []int{3, 6})
	check("reversed triple", [][][]float32{seqs[5], seqs[1], seqs[0]}, []int{5, 1, 0})
}

// TestScratch32RefreshAfterRetraining: after TrainBatch, Refresh brings
// the float32 projection back in sync with the training weights.
func TestScratch32RefreshAfterRetraining(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net, err := NewNetwork(4, []int{12}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	seq64, seq32 := randomSeq32(rng, 10, 4)
	sc := net.NewInferScratch32(2)
	net.PredictInto32(seq32, sc)

	opt := NewAdam(net.Params(), 1e-2)
	if _, err := net.TrainBatch([]Sample{{Seq: seq64, Target: []float64{0.5, -0.5}}}, opt); err != nil {
		t.Fatal(err)
	}
	sc.Refresh(net)
	got := net.PredictInto32(seq32, sc)
	want := net.Predict(seq64)
	for k := range want {
		if diff := math.Abs(float64(got[k]) - want[k]); diff > 1e-5*(1+math.Abs(want[k])) {
			t.Fatalf("post-retrain out %d: float32 %v float64 %v", k, got[k], want[k])
		}
	}
}

// TestStaleScratchPanics covers the weight-version counter: predicting
// through a scratch that has not been Refreshed since TrainBatch must
// panic, not silently use old weights.
func TestStaleScratchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net, err := NewNetwork(4, []int{12}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	seq64, seq32 := randomSeq32(rng, 10, 4)
	sc32 := net.NewInferScratch32(2)

	opt := NewAdam(net.Params(), 1e-2)
	if _, err := net.TrainBatch([]Sample{{Seq: seq64, Target: []float64{0.5, -0.5}}}, opt); err != nil {
		t.Fatal(err)
	}

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: stale scratch did not panic", name)
			}
		}()
		f()
	}
	expectPanic("InferScratch32", func() { net.PredictInto32(seq32, sc32) })

	// Refresh clears the staleness.
	sc32.Refresh(net)
	net.PredictInto32(seq32, sc32)
}

// TestLSTMInferResetsState: every prediction starts from zero recurrent
// state. Repeating a sequence on the same scratch — solo, or batched
// after a different batch has run through it — reproduces the first
// output bit for bit instead of carrying hidden state forward.
func TestLSTMInferResetsState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := NewNetwork(4, []int{8, 6}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc := net.NewInferScratch32(2)
	_, seq := randomSeq32(rng, 10, 4)
	_, other := randomSeq32(rng, 10, 4)
	first := append([]float32(nil), net.PredictInto32(seq, sc)...)
	if second := net.PredictInto32(seq, sc); !equal32(first, second) {
		t.Fatalf("repeated PredictInto32 diverged: %v vs %v", first, second)
	}
	net.PredictBatchInto([][][]float32{other, other}, sc)
	if got := net.PredictBatchInto([][][]float32{other, seq}, sc)[1]; !equal32(first, got) {
		t.Fatalf("batched repeat after another batch diverged: %v vs %v", first, got)
	}
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInferZeroAllocs holds the single-sequence path to zero steady-
// state allocations: the ML mitigation baseline calls it every control
// cycle when it runs without a batching hub.
func TestInferZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	net, err := NewNetwork(6, []int{32, 16}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := net.NewInferScratch32(1)
	_, seq := randomSeq32(rng, 20, 6)
	net.PredictInto32(seq, sc) // warm up
	if n := testing.AllocsPerRun(100, func() { net.PredictInto32(seq, sc) }); n != 0 {
		t.Fatalf("PredictInto32 allocates %v per run, want 0", n)
	}
}

// TestInferBatchZeroAllocs holds the batched path to zero steady-state
// allocations.
func TestInferBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net, err := NewNetwork(6, []int{32, 16}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const B = 8
	sc := net.NewInferScratch32(B)
	seqs := make([][][]float32, B)
	for b := range seqs {
		_, seqs[b] = randomSeq32(rng, 20, 6)
	}
	if n := testing.AllocsPerRun(10, func() { net.PredictBatchInto(seqs, sc) }); n != 0 {
		t.Fatalf("PredictBatchInto allocates %v per run, want 0", n)
	}
}
