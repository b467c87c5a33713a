// Package mlp implements the small multilayer perceptron used for the
// online-IL policy (Section IV-A3: "the policy is represented as a neural
// network and it is updated using the back-propagation algorithm") and for
// the deep-Q baseline. Training is plain SGD with momentum; everything is
// deterministic given the seed.
//
// The forward and backward loops are blocked (four output units per pass
// in forward, two rows per pass when back-propagating deltas) but keep
// every floating-point operation of the one-unit-at-a-time loops, in the
// same order: each blocked unit has its own accumulator and sums left to
// right, there is no reassociation and no fused multiply-add. Outputs are
// therefore bit-identical to the straightforward kernel, which
// TestKernelBitIdentical keeps as its reference.
package mlp

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// Tanh is the default hidden activation.
	Tanh Activation = iota
	// ReLU is a rectified-linear hidden activation.
	ReLU
)

// Network is a fully connected feed-forward network with linear outputs.
//
// A Network is NOT goroutine-safe: training always mutated the weights, and
// Predict/TrainStep/TrainEpochs now additionally share per-network scratch
// buffers (activations, backprop deltas, the Predict output) so the forward
// and backward passes are allocation-free. Give each concurrent consumer its
// own Clone.
type Network struct {
	Sizes  []int // layer widths, input..output
	Act    Activation
	W      [][]float64 // W[l][j*in+i]: layer l weight from input i to unit j
	B      [][]float64
	mW, mB [][]float64 // momentum buffers

	// Scratch reused across calls (lazily sized, never serialized):
	// acts[0] aliases the current input during a pass, acts[1..] and
	// deltas[1..] are per-layer buffers, predOut backs Predict's result,
	// order backs TrainEpochs' shuffle and rng its epoch shuffling (the
	// source is re-seeded per call, so reuse is invisible to outputs).
	acts    [][]float64
	deltas  [][]float64
	predOut []float64
	order   []int
	rng     *rand.Rand
}

// New constructs a network with the given layer sizes (at least input and
// output) and Xavier-style initialization.
func New(seed int64, act Activation, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{Sizes: sizes, Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, out))
		n.mW = append(n.mW, make([]float64, in*out))
		n.mB = append(n.mB, make([]float64, out))
	}
	return n
}

// NumParams returns the total number of trainable parameters; the paper
// cares about this because the policy must fit in an OS governor (<20KB of
// state for the adaptation buffer, a few KB for the network).
func (n *Network) NumParams() int {
	total := 0
	for l := range n.W {
		total += len(n.W[l]) + len(n.B[l])
	}
	return total
}

// ensureScratch lazily sizes the shared forward/backward buffers.
func (n *Network) ensureScratch() {
	if n.acts != nil {
		return
	}
	L := len(n.Sizes)
	n.acts = make([][]float64, L)
	n.deltas = make([][]float64, L)
	for l := 1; l < L; l++ {
		n.acts[l] = make([]float64, n.Sizes[l])
		n.deltas[l] = make([]float64, n.Sizes[l])
	}
	n.predOut = make([]float64, n.Sizes[L-1])
}

// forward runs the network and returns the per-layer activations (needed
// for backprop). The returned slices are the network's scratch buffers;
// acts[0] aliases x until the next pass.
func (n *Network) forward(x []float64) [][]float64 {
	if len(x) != n.Sizes[0] {
		panic(fmt.Sprintf("mlp: input dim %d, want %d", len(x), n.Sizes[0]))
	}
	n.ensureScratch()
	acts := n.acts
	acts[0] = x
	last := len(n.W) - 1
	for l, w := range n.W {
		prev, a, b := acts[l], acts[l+1], n.B[l]
		in := len(prev)
		b = b[:len(a)]
		// Four output units per pass over the inputs: each unit keeps its
		// own accumulator and its left-to-right summation order, so the
		// sums are bit-identical to one unit at a time, but the four
		// dependency chains overlap.
		j := 0
		for ; j+4 <= len(a); j += 4 {
			w0 := w[j*in:][:in]
			w1 := w[(j+1)*in:][:in]
			w2 := w[(j+2)*in:][:in]
			w3 := w[(j+3)*in:][:in]
			s0, s1, s2, s3 := b[j], b[j+1], b[j+2], b[j+3]
			for i, p := range prev {
				s0 += w0[i] * p
				s1 += w1[i] * p
				s2 += w2[i] * p
				s3 += w3[i] * p
			}
			a[j], a[j+1], a[j+2], a[j+3] = s0, s1, s2, s3
		}
		for ; j < len(a); j++ {
			wj := w[j*in:][:in]
			s := b[j]
			for i, p := range prev {
				s += wj[i] * p
			}
			a[j] = s
		}
		if l == last {
			break
		}
		if n.Act == ReLU {
			for j, v := range a {
				if v < 0 {
					a[j] = 0
				}
			}
		} else {
			for j, v := range a {
				a[j] = math.Tanh(v)
			}
		}
	}
	return acts
}

// Predict returns the network output for input x. The returned slice is a
// per-network scratch buffer, valid until the next Predict on this network
// (callers may mutate it; callers that retain it across calls must copy).
func (n *Network) Predict(x []float64) []float64 {
	acts := n.forward(x)
	copy(n.predOut, acts[len(acts)-1])
	n.acts[0] = nil // do not pin the caller's input between calls
	return n.predOut
}

// TrainStep performs one SGD-with-momentum step on a single (x, target)
// pair under MSE loss and returns the sample loss before the update.
func (n *Network) TrainStep(x, target []float64, lr, momentum float64) float64 {
	acts := n.forward(x)
	L := len(n.W)
	out := acts[L]
	if len(target) != len(out) {
		panic(fmt.Sprintf("mlp: target dim %d, want %d", len(target), len(out)))
	}
	// Output delta (linear output + MSE).
	delta := n.deltas[L]
	loss := 0.0
	for j := range out {
		e := out[j] - target[j]
		delta[j] = e
		loss += e * e
	}
	loss /= float64(len(out))

	for l := L - 1; l >= 0; l-- {
		prev, delta := acts[l], n.deltas[l+1]
		w, mw, b, mb := n.W[l], n.mW[l], n.B[l], n.mB[l]
		in := len(prev)
		if l > 0 {
			// Back-propagate through the weights before they are updated.
			// Two rows per pass: each nextDelta[i] still adds its terms in
			// row order, so the sums are bit-identical to one row at a time.
			nextDelta := n.deltas[l][:in]
			clear(nextDelta)
			j := 0
			for ; j+2 <= len(delta); j += 2 {
				d0, d1 := delta[j], delta[j+1]
				w0, w1 := w[j*in:][:in], w[(j+1)*in:][:in]
				for i, nd := range nextDelta {
					nd += w0[i] * d0
					nextDelta[i] = nd + w1[i]*d1
				}
			}
			for ; j < len(delta); j++ {
				d, wj := delta[j], w[j*in:][:in]
				for i := range nextDelta {
					nextDelta[i] += wj[i] * d
				}
			}
			if n.Act == ReLU {
				for i, a := range prev {
					if !(a > 0) {
						nextDelta[i] *= 0 // not = 0: keeps the sign of zero and NaN
					}
				}
			} else {
				for i, a := range prev {
					nextDelta[i] *= 1 - a*a // tanh'(x) in terms of tanh(x)
				}
			}
		}
		b, mb = b[:len(delta)], mb[:len(delta)]
		for j, d := range delta {
			wrow, mrow := w[j*in:][:in], mw[j*in:][:in]
			for i, p := range prev {
				m := momentum*mrow[i] - lr*(d*p)
				mrow[i] = m
				wrow[i] += m
			}
			mb[j] = momentum*mb[j] - lr*d
			b[j] += mb[j]
		}
	}
	n.acts[0] = nil
	return loss
}

// TrainEpochs runs full-batch epochs of per-sample SGD over the dataset in
// a deterministic shuffled order and returns the final mean loss.
func (n *Network) TrainEpochs(xs, ys [][]float64, epochs int, lr, momentum float64, seed int64) float64 {
	if len(xs) != len(ys) {
		panic("mlp: xs/ys length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	// Re-seeding the persistent rng replays exactly the stream a fresh
	// rand.New(rand.NewSource(seed)) would produce, without the per-call
	// source+rng allocations the retrain-heavy online loop used to pay.
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(seed))
	} else {
		n.rng.Seed(seed)
	}
	if cap(n.order) < len(xs) {
		n.order = make([]int, len(xs))
	}
	order := n.order[:len(xs)]
	for i := range order {
		order[i] = i
	}
	// One swap closure for all epochs; allocating it inside the loop cost
	// an object per epoch across every incremental policy update.
	swap := func(i, j int) { order[i], order[j] = order[j], order[i] }
	last := 0.0
	for e := 0; e < epochs; e++ {
		n.rng.Shuffle(len(order), swap)
		sum := 0.0
		for _, i := range order {
			sum += n.TrainStep(xs[i], ys[i], lr, momentum)
		}
		last = sum / float64(len(xs))
	}
	return last
}

// Clone returns a deep copy of the network (used for DQN target networks).
func (n *Network) Clone() *Network {
	c := &Network{Sizes: append([]int(nil), n.Sizes...), Act: n.Act}
	for l := range n.W {
		c.W = append(c.W, append([]float64(nil), n.W[l]...))
		c.B = append(c.B, append([]float64(nil), n.B[l]...))
		c.mW = append(c.mW, make([]float64, len(n.W[l])))
		c.mB = append(c.mB, make([]float64, len(n.B[l])))
	}
	return c
}
