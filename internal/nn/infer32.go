package nn

import "fmt"

// This file is the inference path: batched float32, allocation-free in
// steady state. Training (Forward/Backward) clones vectors and builds
// per-timestep caches for backpropagation; the closed-loop simulator
// calls the network every control cycle and never backpropagates, so
// inference works entirely on caller-owned scratch buffers. B
// concurrent sequences share one (B x In) x (In x 4H) GEMM per layer
// per timestep, so each weight row is loaded once per timestep for the
// whole batch and the multiply-adds vectorize eight lanes wide.
// Training stays float64 — the scratch projects the weights to float32
// once at Refresh. See DESIGN.md ("Performance") for the scratch-
// ownership conventions.
//
// Determinism contract (the mitigation batcher depends on it): for a
// given network, a sequence's outputs are a pure function of that
// sequence alone. Every z[b][i] accumulates bias, then input rows in
// ascending j, then recurrent rows in ascending j — the j-grouping
// into fours depends only on the layer dimensions, the column blocking
// partitions i without reordering any sum, and no value from sequence
// b' ever feeds sequence b. Running alone (B=1) takes the identical
// kernel sequence, so batched and solo outputs are bit-identical.

// gemmBlockCols is the column-block width of the batched accumulation.
// One block keeps B z-row segments plus four weight-row segments
// resident in L1 while a weight panel streams through once per
// timestep (B=8, 256 cols: 8KB of z + 4KB of weights).
const gemmBlockCols = 256

// LSTMScratch32 holds the float32 weight projection and the batched
// recurrent state for one layer. Owned by one caller; not safe for
// concurrent use.
type LSTMScratch32 struct {
	maxB int

	h     []float32   // (maxB x H) hidden states, row b = sequence b
	c     []float32   // (maxB x H) cell states
	z     []float32   // (maxB x 4H) pre-activations
	hRows [][]float32 // row views into h, returned by StepInferBatch

	gt []float32 // (4H) gate nonlinearity scratch, one row at a time
	tc []float32 // (H) tanh(c) scratch

	wxT []float32 // (In x 4H) float32 Wx transposed
	whT []float32 // (H x 4H) float32 Wh transposed
	b   []float32 // (4H) float32 bias

	version uint64
}

// NewScratch32 allocates batched float32 inference scratch for up to
// maxBatch concurrent sequences, capturing the current weights.
func (l *LSTM) NewScratch32(maxBatch int) *LSTMScratch32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewScratch32 batch %d, want > 0", maxBatch))
	}
	H := l.HiddenSize
	H4 := 4 * H
	s := &LSTMScratch32{
		maxB:  maxBatch,
		h:     make([]float32, maxBatch*H),
		c:     make([]float32, maxBatch*H),
		z:     make([]float32, maxBatch*H4),
		hRows: make([][]float32, maxBatch),
		gt:    make([]float32, H4),
		tc:    make([]float32, H),
		wxT:   make([]float32, l.InSize*H4),
		whT:   make([]float32, H*H4),
		b:     make([]float32, H4),
	}
	for b := 0; b < maxBatch; b++ {
		s.hRows[b] = s.h[b*H : (b+1)*H]
	}
	s.Refresh(l)
	return s
}

// Refresh re-projects the layer weights into the scratch's transposed
// float32 layout. Call it after the layer has been (re)trained to keep
// an existing scratch usable; NewScratch32 calls it on construction.
func (s *LSTMScratch32) Refresh(l *LSTM) {
	H4 := 4 * l.HiddenSize
	for i := 0; i < H4; i++ {
		for j := 0; j < l.InSize; j++ {
			s.wxT[j*H4+i] = float32(l.Wx.Data[i*l.InSize+j])
		}
		for j := 0; j < l.HiddenSize; j++ {
			s.whT[j*H4+i] = float32(l.Wh.Data[i*l.HiddenSize+j])
		}
	}
	for i, v := range l.B {
		s.b[i] = float32(v)
	}
	s.version = l.version
}

// checkVersion panics when the layer weights have moved past the
// versions the scratch captured — predicting would silently use the
// pre-retrain weights otherwise. scratchKind names the scratch type in
// the message.
func checkVersion(scratchKind string, scratchVer, layerVer uint64) {
	if scratchVer != layerVer {
		panic(fmt.Sprintf("nn: stale %s: weights at version %d, scratch captured version %d — call Refresh after (re)training",
			scratchKind, layerVer, scratchVer))
	}
}

// BeginInferBatch resets the recurrent state of the first batch rows
// for a new set of sequences.
func (l *LSTM) BeginInferBatch(s *LSTMScratch32, batch int) {
	H := l.HiddenSize
	for i := range s.h[:batch*H] {
		s.h[i] = 0
		s.c[i] = 0
	}
}

// accumBlock32 accumulates z[b][i] += sum_j coef[b][j] * wT[j][i] for
// i in [i0, i1) over all batch rows: one column block of the batched
// GEMM. Rows are consumed in fours (fixed by K alone) so the
// accumulation order per element never depends on the batch.
func accumBlock32(z []float32, coef [][]float32, wT []float32, K, H4, i0, i1, B int) {
	var j int
	for j = 0; j+4 <= K; j += 4 {
		base := j * H4
		w0 := wT[base+i0 : base+i1]
		w1 := wT[base+H4+i0 : base+H4+i1]
		w2 := wT[base+2*H4+i0 : base+2*H4+i1]
		w3 := wT[base+3*H4+i0 : base+3*H4+i1]
		for b := 0; b < B; b++ {
			cb := coef[b]
			a := [4]float32{cb[j], cb[j+1], cb[j+2], cb[j+3]}
			axpy432(z[b*H4+i0:b*H4+i1], w0, w1, w2, w3, &a)
		}
	}
	for ; j < K; j++ {
		w := wT[j*H4+i0 : j*H4+i1]
		for b := 0; b < B; b++ {
			axpy132(z[b*H4+i0:b*H4+i1], w, coef[b][j])
		}
	}
}

// StepInferBatch advances the layer by one timestep for len(X)
// concurrent sequences without allocating. X[b] is sequence b's input
// vector. The returned rows alias the scratch hidden state (row b for
// sequence b) and stay valid until the next call on the same scratch.
func (l *LSTM) StepInferBatch(X [][]float32, s *LSTMScratch32) [][]float32 {
	B := len(X)
	if B == 0 || B > s.maxB {
		panic(fmt.Sprintf("nn: StepInferBatch batch %d, scratch holds at most %d", B, s.maxB))
	}
	for _, x := range X {
		if len(x) != l.InSize {
			panic(fmt.Sprintf("nn: LSTM input dim %d, want %d", len(x), l.InSize))
		}
	}
	checkVersion("LSTMScratch32", s.version, l.version)
	H := l.HiddenSize
	H4 := 4 * H
	for b := 0; b < B; b++ {
		copy(s.z[b*H4:(b+1)*H4], s.b)
	}
	for i0 := 0; i0 < H4; i0 += gemmBlockCols {
		i1 := i0 + gemmBlockCols
		if i1 > H4 {
			i1 = H4
		}
		accumBlock32(s.z, X, s.wxT, l.InSize, H4, i0, i1, B)
		accumBlock32(s.z, s.hRows, s.whT, H, H4, i0, i1, B)
	}
	// Gate nonlinearities, one sequence row at a time. The logistic
	// gates are sigmoid(x) = 0.5 + 0.5*tanh(x/2) with the 1/2 folded
	// into the vtanh32 scale.
	for b := 0; b < B; b++ {
		z := s.z[b*H4 : (b+1)*H4]
		cr := s.c[b*H : (b+1)*H]
		hr := s.h[b*H : (b+1)*H]
		gt := s.gt
		vtanh32(gt[:H], z[:H], 0.5)         // input gate
		vtanh32(gt[H:2*H], z[H:2*H], 0.5)   // forget gate
		vtanh32(gt[2*H:3*H], z[2*H:3*H], 1) // cell candidate
		vtanh32(gt[3*H:], z[3*H:], 0.5)     // output gate
		for j := 0; j < H; j++ {
			ig := 0.5 + 0.5*gt[j]
			fg := 0.5 + 0.5*gt[H+j]
			cr[j] = fg*cr[j] + ig*gt[2*H+j]
		}
		vtanh32(s.tc, cr, 1)
		for j := 0; j < H; j++ {
			hr[j] = (0.5 + 0.5*gt[3*H+j]) * s.tc[j]
		}
	}
	return s.hRows[:B]
}

// InferScratch32 holds per-layer batched scratch plus the float32 head
// projection for allocation-free batched Network inference. Obtain one
// from NewInferScratch32; not safe for concurrent use.
type InferScratch32 struct {
	maxB   int
	layers []*LSTMScratch32

	headW []float32 // (Out x H) row-major float32 head weights
	headB []float32 // (Out)

	out     []float32   // (maxB x Out)
	outRows [][]float32 // row views into out
	xRows   [][]float32 // per-timestep input gather, maxB rows
	solo    [][][]float32

	version uint64
}

// NewInferScratch32 allocates batched float32 scratch sized for the
// network and up to maxBatch concurrent sequences.
func (n *Network) NewInferScratch32(maxBatch int) *InferScratch32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewInferScratch32 batch %d, want > 0", maxBatch))
	}
	sc := &InferScratch32{
		maxB:    maxBatch,
		layers:  make([]*LSTMScratch32, len(n.lstms)),
		headW:   make([]float32, n.head.OutSize*n.head.InSize),
		headB:   make([]float32, n.head.OutSize),
		out:     make([]float32, maxBatch*n.head.OutSize),
		outRows: make([][]float32, maxBatch),
		xRows:   make([][]float32, maxBatch),
		solo:    make([][][]float32, 1),
	}
	for i, l := range n.lstms {
		sc.layers[i] = l.NewScratch32(maxBatch)
	}
	out := n.head.OutSize
	for b := 0; b < maxBatch; b++ {
		sc.outRows[b] = sc.out[b*out : (b+1)*out]
	}
	sc.refreshHead(n)
	sc.version = n.version
	return sc
}

// MaxBatch returns the largest batch the scratch was sized for.
func (sc *InferScratch32) MaxBatch() int { return sc.maxB }

// Refresh re-projects the network weights into the scratch (see
// LSTMScratch32.Refresh). The scratch must have been created for this
// network.
func (sc *InferScratch32) Refresh(n *Network) {
	for i, l := range n.lstms {
		sc.layers[i].Refresh(l)
	}
	sc.refreshHead(n)
	sc.version = n.version
}

func (sc *InferScratch32) refreshHead(n *Network) {
	for i, v := range n.head.W.Data {
		sc.headW[i] = float32(v)
	}
	for i, v := range n.head.B {
		sc.headB[i] = float32(v)
	}
}

// PredictBatchInto runs B = len(seqs) sequences through the network in
// one batched pass and returns one output row per sequence. All
// sequences must share a length; sequence b's outputs depend only on
// seqs[b] (see the determinism contract above), so a result is
// bit-identical whether the sequence runs alone or batched with
// others. The rows alias sc and stay valid until the next call.
func (n *Network) PredictBatchInto(seqs [][][]float32, sc *InferScratch32) [][]float32 {
	B := len(seqs)
	if B == 0 || B > sc.maxB {
		panic(fmt.Sprintf("nn: PredictBatchInto batch %d, scratch holds at most %d", B, sc.maxB))
	}
	T := len(seqs[0])
	if T == 0 {
		panic("nn: PredictBatchInto on empty sequence")
	}
	for _, s := range seqs {
		if len(s) != T {
			panic(fmt.Sprintf("nn: PredictBatchInto ragged batch: %d vs %d timesteps", len(s), T))
		}
	}
	checkVersion("InferScratch32", sc.version, n.version)
	for i, l := range n.lstms {
		l.BeginInferBatch(sc.layers[i], B)
	}
	xs := sc.xRows[:B]
	var h [][]float32
	for t := 0; t < T; t++ {
		for b := 0; b < B; b++ {
			xs[b] = seqs[b][t]
		}
		h = xs
		for i, l := range n.lstms {
			h = l.StepInferBatch(h, sc.layers[i])
		}
	}
	// Head: short per-row dot products, accumulated in ascending j.
	in := n.head.InSize
	for b := 0; b < B; b++ {
		hb := h[b]
		ob := sc.outRows[b]
		for k := range ob {
			acc := sc.headB[k]
			w := sc.headW[k*in : (k+1)*in]
			for j, v := range hb {
				acc += w[j] * v
			}
			ob[k] = acc
		}
	}
	return sc.outRows[:B]
}

// PredictInto32 is the single-sequence float32 fallback: a batch of
// one through the same kernels, so its output is bit-identical to the
// same sequence inside any PredictBatchInto batch. The result aliases
// sc, valid until the next call.
func (n *Network) PredictInto32(seq [][]float32, sc *InferScratch32) []float32 {
	sc.solo[0] = seq
	rows := n.PredictBatchInto(sc.solo, sc)
	sc.solo[0] = nil
	return rows[0]
}
