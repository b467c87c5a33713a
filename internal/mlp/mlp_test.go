package mlp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearRegressionEquivalent(t *testing.T) {
	// A no-hidden-layer network is linear regression; it must learn an
	// exact linear map.
	n := New(1, Tanh, 2, 1)
	rng := rand.New(rand.NewSource(1))
	var xs, ys [][]float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, []float64{0.5*x[0] - 0.25*x[1] + 0.1})
	}
	loss := n.TrainEpochs(xs, ys, 300, 0.05, 0.9, 2)
	if loss > 1e-6 {
		t.Fatalf("linear map not learned, loss %v", loss)
	}
}

func TestXORWithHiddenLayer(t *testing.T) {
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	n := New(3, Tanh, 2, 8, 1)
	n.TrainEpochs(xs, ys, 3000, 0.05, 0.9, 4)
	for i, x := range xs {
		got := n.Predict(x)[0]
		if math.Abs(got-ys[i][0]) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", x, got, ys[i][0])
		}
	}
}

func TestReLUTrains(t *testing.T) {
	n := New(5, ReLU, 1, 8, 1)
	var xs, ys [][]float64
	for x := -1.0; x <= 1.0; x += 0.05 {
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Abs(x)})
	}
	loss := n.TrainEpochs(xs, ys, 800, 0.01, 0.9, 6)
	if loss > 0.01 {
		t.Fatalf("ReLU net failed to fit |x|, loss %v", loss)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() *Network {
		n := New(7, Tanh, 2, 6, 1)
		xs := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}}
		ys := [][]float64{{1}, {0}, {0.5}}
		n.TrainEpochs(xs, ys, 50, 0.05, 0.9, 8)
		return n
	}
	a, b := build(), build()
	for l := range a.W {
		for i := range a.W[l] {
			if a.W[l][i] != b.W[l][i] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestClone(t *testing.T) {
	n := New(9, Tanh, 2, 4, 1)
	c := n.Clone()
	x := []float64{0.3, -0.7}
	if n.Predict(x)[0] != c.Predict(x)[0] {
		t.Fatal("clone predicts differently")
	}
	// Training the clone must not affect the original.
	before := n.Predict(x)[0]
	c.TrainStep(x, []float64{5}, 0.5, 0)
	if n.Predict(x)[0] != before {
		t.Fatal("training clone mutated original")
	}
}

// TestPredictResultSurvivesTrainStep pins the scratch-buffer contract the
// DQN training loop depends on: target := n.Predict(s) followed by
// n.TrainStep(s, target, ...) must behave exactly as if target had been
// copied — TrainStep's forward pass runs in the activation scratch, never
// in the buffer backing Predict's result.
func TestPredictResultSurvivesTrainStep(t *testing.T) {
	build := func() *Network { return New(3, Tanh, 4, 6, 2) }
	x := []float64{0.2, -0.4, 0.9, 0.1}

	scratch := build()
	target := scratch.Predict(x)
	target[0] += 0.3 // the DQN Bellman-target mutation
	scratch.TrainStep(x, target, 0.1, 0.5)

	copied := build()
	tgt := append([]float64(nil), copied.Predict(x)...)
	tgt[0] += 0.3
	copied.TrainStep(x, tgt, 0.1, 0.5)

	for l := range scratch.W {
		for i := range scratch.W[l] {
			if scratch.W[l][i] != copied.W[l][i] {
				t.Fatalf("layer %d weight %d diverged: scratch target was clobbered by TrainStep", l, i)
			}
		}
	}
}

// TestPredictReusesBuffer documents (and pins) the Predict return contract:
// the slice is per-network scratch, overwritten by the next Predict on the
// same network, while a different network's result is unaffected.
func TestPredictReusesBuffer(t *testing.T) {
	n := New(5, Tanh, 2, 4, 1)
	a := n.Predict([]float64{1, 0})
	first := a[0]
	b := n.Predict([]float64{0, 1})
	if &a[0] != &b[0] {
		t.Fatal("Predict allocated a new buffer; the zero-allocation contract regressed")
	}
	other := n.Clone().Predict([]float64{1, 0})
	if other[0] != first {
		t.Fatal("a clone's Predict disagreed with the original's for the same input")
	}
	if &other[0] == &b[0] {
		t.Fatal("clone shares the original's scratch buffer")
	}
}

func TestNumParams(t *testing.T) {
	n := New(1, Tanh, 3, 5, 2)
	want := 3*5 + 5 + 5*2 + 2
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	// The governor-residence constraint: the default policy net must stay
	// small (a few KB of float64 parameters).
	pol := New(1, Tanh, 13, 24, 16, 4)
	if pol.NumParams()*8 > 10*1024 {
		t.Fatalf("policy network too large for a governor: %d bytes", pol.NumParams()*8)
	}
}

func TestInputDimPanics(t *testing.T) {
	n := New(1, Tanh, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dim")
		}
	}()
	n.Predict([]float64{1})
}

func TestTrainStepReducesLoss(t *testing.T) {
	n := New(11, Tanh, 2, 6, 1)
	x := []float64{0.5, -0.5}
	target := []float64{0.8}
	first := n.TrainStep(x, target, 0.05, 0)
	var last float64
	for i := 0; i < 100; i++ {
		last = n.TrainStep(x, target, 0.05, 0)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func refActivate(act Activation, v float64) float64 {
	if act == ReLU {
		if v < 0 {
			return 0
		}
		return v
	}
	return math.Tanh(v)
}

func refActivateGrad(act Activation, a float64) float64 {
	if act == ReLU {
		if a > 0 {
			return 1
		}
		return 0
	}
	return 1 - a*a
}

// refForward and refTrainStep are the straightforward kernel: one output
// unit at a time, one branch per weight. The blocked kernel in mlp.go must
// reproduce them bit for bit, because every golden figure digest rests on
// the exact floating-point sequence of these loops.
func refForward(n *Network, x []float64) [][]float64 {
	acts := [][]float64{x}
	for l := 0; l < len(n.W); l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		a := make([]float64, out)
		prev := acts[l]
		for j := 0; j < out; j++ {
			s := n.B[l][j]
			wrow := n.W[l][j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				s += wrow[i] * prev[i]
			}
			if l < len(n.W)-1 {
				s = refActivate(n.Act, s)
			}
			a[j] = s
		}
		acts = append(acts, a)
	}
	return acts
}

func refTrainStep(n *Network, x, target []float64, lr, momentum float64) float64 {
	acts := refForward(n, x)
	L := len(n.W)
	out := acts[L]
	deltas := make([][]float64, L+1)
	deltas[L] = make([]float64, len(out))
	loss := 0.0
	for j := range out {
		e := out[j] - target[j]
		deltas[L][j] = e
		loss += e * e
	}
	loss /= float64(len(out))
	for l := L - 1; l >= 0; l-- {
		in, outW := n.Sizes[l], n.Sizes[l+1]
		prev := acts[l]
		delta := deltas[l+1]
		var nextDelta []float64
		if l > 0 {
			nextDelta = make([]float64, in)
			deltas[l] = nextDelta
		}
		for j := 0; j < outW; j++ {
			d := delta[j]
			wrow := n.W[l][j*in : (j+1)*in]
			mrow := n.mW[l][j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				if nextDelta != nil {
					nextDelta[i] += wrow[i] * d
				}
				g := d * prev[i]
				mrow[i] = momentum*mrow[i] - lr*g
				wrow[i] += mrow[i]
			}
			n.mB[l][j] = momentum*n.mB[l][j] - lr*d
			n.B[l][j] += n.mB[l][j]
		}
		if l > 0 {
			for i := 0; i < in; i++ {
				nextDelta[i] *= refActivateGrad(n.Act, acts[l][i])
			}
		}
	}
	return loss
}

// TestKernelBitIdentical runs the blocked kernel and the reference loops
// side by side on seeded data, over widths that are not multiples of the
// forward pass's block of four, and requires every loss, parameter,
// momentum value and prediction to match bit for bit.
func TestKernelBitIdentical(t *testing.T) {
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
			}
		}
	}
	for _, act := range []Activation{Tanh, ReLU} {
		for _, sizes := range [][]int{{13, 24, 16, 4}, {5, 7, 3}, {3, 1}} {
			fast, ref := New(21, act, sizes...), New(21, act, sizes...)
			rng := rand.New(rand.NewSource(22))
			vec := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v
			}
			for step := 0; step < 2000; step++ {
				x, y := vec(sizes[0]), vec(sizes[len(sizes)-1])
				got, want := fast.TrainStep(x, y, 0.01, 0.9), refTrainStep(ref, x, y, 0.01, 0.9)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("act %d sizes %v step %d: loss %v, reference %v", act, sizes, step, got, want)
				}
			}
			for l := range ref.W {
				sameBits("W", fast.W[l], ref.W[l])
				sameBits("B", fast.B[l], ref.B[l])
				sameBits("mW", fast.mW[l], ref.mW[l])
				sameBits("mB", fast.mB[l], ref.mB[l])
			}
			for k := 0; k < 50; k++ {
				x := vec(sizes[0])
				acts := refForward(ref, x)
				sameBits("Predict", fast.Predict(x), acts[len(acts)-1])
			}
		}
	}
}
