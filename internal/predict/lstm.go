// Package predict implements the two predictors Lyra relies on:
//
//   - an LSTM-based inference-resource-usage predictor (§6: window size 10,
//     two hidden layers, Adam optimizer, MSE loss, predicting the next five
//     minutes of usage), implemented from scratch on the standard library;
//   - the job running-time estimator §5.2 assumes, with the configurable
//     error-injection model used by the sensitivity study in Table 9.
package predict

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTMConfig sizes the usage predictor. The defaults mirror §6.
type LSTMConfig struct {
	Window     int     // input sequence length, default 10
	Hidden     int     // hidden units per layer, default 16
	Layers     int     // stacked LSTM layers, default 2
	LR         float64 // Adam learning rate, default 0.003
	Seed       int64
	ClipGrad   float64 // gradient clipping threshold, default 1.0
	Beta1      float64 // Adam beta1, default 0.9
	Beta2      float64 // Adam beta2, default 0.999
	AdamEps    float64 // Adam epsilon, default 1e-8
	InitStdDev float64 // weight init scale, default 0.2
}

// DefaultLSTMConfig returns the paper's predictor configuration.
func DefaultLSTMConfig(seed int64) LSTMConfig {
	return LSTMConfig{
		Window: 10, Hidden: 16, Layers: 2, LR: 0.003, Seed: seed,
		ClipGrad: 1.0, Beta1: 0.9, Beta2: 0.999, AdamEps: 1e-8, InitStdDev: 0.2,
	}
}

// param is one weight tensor with its gradient and Adam moments.
type param struct {
	w, g, m, v []float64
}

func newParam(n int, rng *rand.Rand, std float64) *param {
	p := &param{
		w: make([]float64, n), g: make([]float64, n),
		m: make([]float64, n), v: make([]float64, n),
	}
	for i := range p.w {
		p.w[i] = rng.NormFloat64() * std
	}
	return p
}

// lstmLayer holds the gate weights of one LSTM layer: for each of the four
// gates (input, forget, cell, output) a weight matrix over [x, h] and a
// bias.
type lstmLayer struct {
	inSize, hidden int
	// wx: 4*hidden x inSize, wh: 4*hidden x hidden, b: 4*hidden.
	wx, wh, b *param
}

func newLSTMLayer(inSize, hidden int, rng *rand.Rand, std float64) *lstmLayer {
	l := &lstmLayer{
		inSize: inSize, hidden: hidden,
		wx: newParam(4*hidden*inSize, rng, std),
		wh: newParam(4*hidden*hidden, rng, std),
		b:  newParam(4*hidden, rng, 0),
	}
	// Standard trick: positive forget-gate bias stabilizes early training.
	for i := hidden; i < 2*hidden; i++ {
		l.b.w[i] = 1
	}
	return l
}

// layerState is one layer's activations at one timestep, kept for
// backprop. x, hPrev and cPrev are wired once, by NewLSTM, to the slices
// they read: the window sample or the layer below's h, and the previous
// timestep's h and c (the model's zero state at the first).
type layerState struct {
	x, hPrev, cPrev        []float64
	i, f, g, o, c, h, tanc []float64
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// forward computes one LSTM step into st, using pre (4*hidden) as scratch.
func (l *lstmLayer) forward(st *layerState, pre []float64) {
	H := l.hidden
	x, hPrev, cPrev := st.x, st.hPrev, st.cPrev
	for r := range pre {
		s := l.b.w[r]
		wx := l.wx.w[r*l.inSize:][:len(x)]
		for k, xv := range x {
			s += wx[k] * xv
		}
		wh := l.wh.w[r*H:][:len(hPrev)]
		for k, hv := range hPrev {
			s += wh[k] * hv
		}
		pre[r] = s
	}
	for j := 0; j < H; j++ {
		st.i[j] = sigmoid(pre[j])
		st.f[j] = sigmoid(pre[H+j])
		st.g[j] = math.Tanh(pre[2*H+j])
		st.o[j] = sigmoid(pre[3*H+j])
		st.c[j] = st.f[j]*cPrev[j] + st.i[j]*st.g[j]
		st.tanc[j] = math.Tanh(st.c[j])
		st.h[j] = st.o[j] * st.tanc[j]
	}
}

// backward accumulates gradients for one step given dh and dc flowing in
// from later timesteps/layers. It overwrites dh and dc with the gradients
// flowing on to the previous timestep and writes the input's into dx
// (inSize); dPre (4*hidden) is scratch.
func (l *lstmLayer) backward(st *layerState, dh, dc, dx, dPre []float64) {
	H := l.hidden
	for j := 0; j < H; j++ {
		do := dh[j] * st.tanc[j]
		dcj := dc[j] + dh[j]*st.o[j]*(1-st.tanc[j]*st.tanc[j])
		di := dcj * st.g[j]
		df := dcj * st.cPrev[j]
		dg := dcj * st.i[j]
		dc[j] = dcj * st.f[j]
		dPre[j] = di * st.i[j] * (1 - st.i[j])
		dPre[H+j] = df * st.f[j] * (1 - st.f[j])
		dPre[2*H+j] = dg * (1 - st.g[j]*st.g[j])
		dPre[3*H+j] = do * st.o[j] * (1 - st.o[j])
	}
	clear(dh)
	clear(dx)
	x, hPrev, dx, dh := st.x, st.hPrev, dx[:len(st.x)], dh[:len(st.hPrev)]
	for r, d := range dPre {
		if d == 0 {
			continue
		}
		wx, gx := l.wx.w[r*l.inSize:][:len(x)], l.wx.g[r*l.inSize:][:len(x)]
		for k, xv := range x {
			gx[k] += d * xv
			dx[k] += wx[k] * d
		}
		wh, gh := l.wh.w[r*H:][:len(hPrev)], l.wh.g[r*H:][:len(hPrev)]
		for k, hv := range hPrev {
			gh[k] += d * hv
			dh[k] += wh[k] * d
		}
		l.b.g[r] += d
	}
}

// LSTM is a stacked-LSTM regressor mapping a window of recent usage samples
// to the next sample. A model owns the workspace its forward and backward
// passes write into, so it is not safe for concurrent use, Predict
// included.
type LSTM struct {
	cfg    LSTMConfig
	layers []*lstmLayer
	wOut   *param // hidden -> 1
	bOut   *param
	step   int

	// The BPTT workspace, allocated once by NewLSTM.
	params    []*param
	xs        []float64      // the window; states[t][0].x is xs[t:t+1]
	states    [][]layerState // [timestep][layer]
	pre, dPre []float64      // 4*hidden gate pre-activations and their gradients
	dh, dc    [][]float64    // per layer, the gradients reaching its h and c
	dx        []float64      // the gradient reaching a layer's input
}

// NewLSTM builds an untrained predictor.
func NewLSTM(cfg LSTMConfig) *LSTM {
	if cfg.Window <= 0 || cfg.Hidden <= 0 || cfg.Layers <= 0 {
		panic(fmt.Sprintf("predict: invalid LSTM config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	H, L, W := cfg.Hidden, cfg.Layers, cfg.Window
	n := &LSTM{cfg: cfg}
	in := 1
	for i := 0; i < L; i++ {
		n.layers = append(n.layers, newLSTMLayer(in, H, rng, cfg.InitStdDev))
		in = H
	}
	n.wOut = newParam(H, rng, cfg.InitStdDev)
	n.bOut = newParam(1, rng, 0)
	n.params = []*param{n.wOut, n.bOut}
	for _, l := range n.layers {
		n.params = append(n.params, l.wx, l.wh, l.b)
	}

	zero := make([]float64, H) // the initial h and c, never written
	n.xs = make([]float64, W)
	n.pre, n.dPre, n.dx = make([]float64, 4*H), make([]float64, 4*H), make([]float64, H)
	for li := 0; li < L; li++ {
		n.dh = append(n.dh, make([]float64, H))
		n.dc = append(n.dc, make([]float64, H))
	}
	n.states = make([][]layerState, W)
	for t := range n.states {
		n.states[t] = make([]layerState, L)
		for li := range n.states[t] {
			st := &n.states[t][li]
			for _, a := range []*[]float64{&st.i, &st.f, &st.g, &st.o, &st.c, &st.h, &st.tanc} {
				*a = make([]float64, H)
			}
			st.x, st.hPrev, st.cPrev = n.xs[t:t+1], zero, zero
			if li > 0 {
				st.x = n.states[t][li-1].h
			}
			if t > 0 {
				st.hPrev, st.cPrev = n.states[t-1][li].h, n.states[t-1][li].c
			}
		}
	}
	return n
}

// Predict runs the network over window (length cfg.Window) and returns the
// next-step estimate.
func (n *LSTM) Predict(window []float64) float64 {
	if len(window) != n.cfg.Window {
		panic(fmt.Sprintf("predict: window length %d, want %d", len(window), n.cfg.Window))
	}
	copy(n.xs, window)
	for t := range n.states {
		for li, l := range n.layers {
			l.forward(&n.states[t][li], n.pre)
		}
	}
	y := n.bOut.w[0]
	last := n.states[len(n.states)-1][len(n.layers)-1].h
	for k, h := range last {
		y += n.wOut.w[k] * h
	}
	return y
}

// TrainStep performs one BPTT + Adam update on a single (window, target)
// pair and returns the squared error before the update.
func (n *LSTM) TrainStep(window []float64, target float64) float64 {
	loss := n.backprop(window, target)
	n.applyAdam()
	return loss
}

// backprop runs the network over window and accumulates the squared error's
// gradient with respect to every weight, through time and layers, into the
// params' g; it returns the squared error.
func (n *LSTM) backprop(window []float64, target float64) float64 {
	diff := n.Predict(window) - target

	// Output layer gradients.
	L := len(n.layers)
	for li := range n.dh {
		clear(n.dh[li])
		clear(n.dc[li])
	}
	lastH := n.states[len(window)-1][L-1].h
	for k := range lastH {
		n.wOut.g[k] += 2 * diff * lastH[k]
		n.dh[L-1][k] = 2 * diff * n.wOut.w[k]
	}
	n.bOut.g[0] += 2 * diff

	// BPTT through time and layers.
	for t := len(window) - 1; t >= 0; t-- {
		for li := L - 1; li >= 0; li-- {
			l := n.layers[li]
			dx := n.dx[:l.inSize]
			l.backward(&n.states[t][li], n.dh[li], n.dc[li], dx, n.dPre)
			if li > 0 {
				below := n.dh[li-1]
				for k := range dx {
					below[k] += dx[k]
				}
			}
		}
	}
	return diff * diff
}

// Fit trains on the series with sliding windows for the given epochs and
// returns the final-epoch mean squared error. Windows are visited in a
// deterministic shuffled order each epoch; sequential visits would make the
// per-sample optimizer chase the local regime of the series instead of its
// overall shape.
func (n *LSTM) Fit(series []float64, epochs int) float64 {
	W := n.cfg.Window
	if len(series) <= W {
		return math.NaN()
	}
	order := make([]int, len(series)-W)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed + 1))
	mse := math.NaN()
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum := 0.0
		for _, i := range order {
			sum += n.TrainStep(series[i:i+W], series[i+W])
		}
		mse = sum / float64(len(order))
	}
	return mse
}

// Evaluate returns the MSE of one-step predictions over the series without
// updating weights.
func (n *LSTM) Evaluate(series []float64) float64 {
	W := n.cfg.Window
	sum, cnt := 0.0, 0
	for i := 0; i+W < len(series); i++ {
		d := n.Predict(series[i:i+W]) - series[i+W]
		sum += d * d
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

func (n *LSTM) applyAdam() {
	n.step++
	c := n.cfg
	b1t := 1 - math.Pow(c.Beta1, float64(n.step))
	b2t := 1 - math.Pow(c.Beta2, float64(n.step))
	for _, p := range n.params {
		w, gs, m, v := p.w, p.g[:len(p.w)], p.m[:len(p.w)], p.v[:len(p.w)]
		for i := range w {
			g := gs[i]
			if g > c.ClipGrad {
				g = c.ClipGrad
			} else if g < -c.ClipGrad {
				g = -c.ClipGrad
			}
			m[i] = c.Beta1*m[i] + (1-c.Beta1)*g
			v[i] = c.Beta2*v[i] + (1-c.Beta2)*g*g
			mHat := m[i] / b1t
			vHat := v[i] / b2t
			w[i] -= c.LR * mHat / (math.Sqrt(vHat) + c.AdamEps)
			gs[i] = 0
		}
	}
}
