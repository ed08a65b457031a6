package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single LSTM layer processing one sequence at a time.
// Gate order within the stacked weight matrices is input, forget, cell,
// output.
type LSTM struct {
	InSize, HiddenSize int

	Wx *Matrix   // (4H x In) input weights
	Wh *Matrix   // (4H x H) recurrent weights
	B  []float64 // (4H) biases

	dWx *Matrix
	dWh *Matrix
	dB  []float64

	caches []lstmCache

	// version counts in-place weight mutations (optimiser steps). The
	// inference scratch captures it at Refresh and the inference path panics
	// on a mismatch, so a stale scratch fails loudly instead of silently
	// predicting with pre-retrain weights.
	version uint64
}

// Version returns the layer's weight-version counter.
func (l *LSTM) Version() uint64 { return l.version }

type lstmCache struct {
	x, hPrev, cPrev      []float64
	i, f, g, o, c, tanhC []float64
}

// NewLSTM constructs an LSTM layer with Xavier-initialised weights and a
// forget-gate bias of 1 (standard practice for training stability).
func NewLSTM(inSize, hiddenSize int, rng *rand.Rand) (*LSTM, error) {
	if inSize <= 0 || hiddenSize <= 0 {
		return nil, fmt.Errorf("nn: LSTM sizes must be positive: in=%d hidden=%d", inSize, hiddenSize)
	}
	l := &LSTM{
		InSize:     inSize,
		HiddenSize: hiddenSize,
		Wx:         NewMatrix(4*hiddenSize, inSize),
		Wh:         NewMatrix(4*hiddenSize, hiddenSize),
		B:          zeros(4 * hiddenSize),
		dWx:        NewMatrix(4*hiddenSize, inSize),
		dWh:        NewMatrix(4*hiddenSize, hiddenSize),
		dB:         zeros(4 * hiddenSize),
	}
	l.Wx.XavierInit(rng)
	l.Wh.XavierInit(rng)
	for j := hiddenSize; j < 2*hiddenSize; j++ {
		l.B[j] = 1 // forget gate bias
	}
	return l, nil
}

// Forward runs the layer over a sequence of input vectors and returns the
// hidden state at every timestep. Internal activations are cached for
// Backward.
func (l *LSTM) Forward(seq [][]float64) [][]float64 {
	H := l.HiddenSize
	hs := make([][]float64, len(seq))
	l.caches = l.caches[:0]
	h := zeros(H)
	c := zeros(H)
	for t, x := range seq {
		if len(x) != l.InSize {
			panic(fmt.Sprintf("nn: LSTM input dim %d, want %d", len(x), l.InSize))
		}
		z := cloneVec(l.B)
		l.Wx.MulVecAdd(x, z)
		l.Wh.MulVecAdd(h, z)

		cache := lstmCache{
			x:     x,
			hPrev: h,
			cPrev: c,
			i:     zeros(H),
			f:     zeros(H),
			g:     zeros(H),
			o:     zeros(H),
			c:     zeros(H),
			tanhC: zeros(H),
		}
		newH := zeros(H)
		for j := 0; j < H; j++ {
			cache.i[j] = Sigmoid(z[j])
			cache.f[j] = Sigmoid(z[H+j])
			cache.g[j] = math.Tanh(z[2*H+j])
			cache.o[j] = Sigmoid(z[3*H+j])
			cache.c[j] = cache.f[j]*c[j] + cache.i[j]*cache.g[j]
			cache.tanhC[j] = math.Tanh(cache.c[j])
			newH[j] = cache.o[j] * cache.tanhC[j]
		}
		h, c = newH, cache.c
		hs[t] = h
		l.caches = append(l.caches, cache)
	}
	return hs
}

// Backward propagates gradients dHs (one per timestep, nil entries allowed
// meaning zero) through the cached forward pass, accumulates weight
// gradients, and returns the gradients with respect to the inputs.
func (l *LSTM) Backward(dHs [][]float64) [][]float64 {
	H := l.HiddenSize
	T := len(l.caches)
	dXs := make([][]float64, T)
	dhNext := zeros(H)
	dcNext := zeros(H)
	dz := zeros(4 * H)

	for t := T - 1; t >= 0; t-- {
		cache := l.caches[t]
		dh := cloneVec(dhNext)
		if t < len(dHs) && dHs[t] != nil {
			for j := range dh {
				dh[j] += dHs[t][j]
			}
		}
		for j := 0; j < H; j++ {
			do := dh[j] * cache.tanhC[j]
			dc := dcNext[j] + dh[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j])
			di := dc * cache.g[j]
			df := dc * cache.cPrev[j]
			dg := dc * cache.i[j]
			dcNext[j] = dc * cache.f[j]

			dz[j] = di * cache.i[j] * (1 - cache.i[j])
			dz[H+j] = df * cache.f[j] * (1 - cache.f[j])
			dz[2*H+j] = dg * (1 - cache.g[j]*cache.g[j])
			dz[3*H+j] = do * cache.o[j] * (1 - cache.o[j])
		}
		l.dWx.AddOuter(dz, cache.x)
		l.dWh.AddOuter(dz, cache.hPrev)
		for j := range dz {
			l.dB[j] += dz[j]
		}
		dx := zeros(l.InSize)
		l.Wx.MulVecTAdd(dz, dx)
		dXs[t] = dx
		for j := range dhNext {
			dhNext[j] = 0
		}
		l.Wh.MulVecTAdd(dz, dhNext)
	}
	return dXs
}

// Params returns the layer's trainable tensors.
func (l *LSTM) Params() []Param {
	return []Param{
		{W: l.Wx.Data, G: l.dWx.Data},
		{W: l.Wh.Data, G: l.dWh.Data},
		{W: l.B, G: l.dB},
	}
}

// ZeroGrad clears accumulated gradients.
func (l *LSTM) ZeroGrad() {
	l.dWx.Zero()
	l.dWh.Zero()
	for i := range l.dB {
		l.dB[i] = 0
	}
}

// Dense is a fully connected linear layer y = Wx + b.
type Dense struct {
	InSize, OutSize int
	W               *Matrix
	B               []float64
	dW              *Matrix
	dB              []float64
	lastIn          []float64
}

// NewDense constructs a Dense layer with Xavier-initialised weights.
func NewDense(inSize, outSize int, rng *rand.Rand) (*Dense, error) {
	if inSize <= 0 || outSize <= 0 {
		return nil, fmt.Errorf("nn: Dense sizes must be positive: in=%d out=%d", inSize, outSize)
	}
	d := &Dense{
		InSize:  inSize,
		OutSize: outSize,
		W:       NewMatrix(outSize, inSize),
		B:       zeros(outSize),
		dW:      NewMatrix(outSize, inSize),
		dB:      zeros(outSize),
	}
	d.W.XavierInit(rng)
	return d, nil
}

// Forward computes the layer output for one input vector.
func (d *Dense) Forward(x []float64) []float64 {
	d.lastIn = x
	out := cloneVec(d.B)
	d.W.MulVecAdd(x, out)
	return out
}

// Backward accumulates gradients for the last Forward call and returns the
// gradient with respect to the input.
func (d *Dense) Backward(dOut []float64) []float64 {
	d.dW.AddOuter(dOut, d.lastIn)
	for j := range dOut {
		d.dB[j] += dOut[j]
	}
	dx := zeros(d.InSize)
	d.W.MulVecTAdd(dOut, dx)
	return dx
}

// Params returns the layer's trainable tensors.
func (d *Dense) Params() []Param {
	return []Param{
		{W: d.W.Data, G: d.dW.Data},
		{W: d.B, G: d.dB},
	}
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.dW.Zero()
	for i := range d.dB {
		d.dB[i] = 0
	}
}
