package predict

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"
)

// lstmFitPin is the sha256 of a fixed training run (see
// TestLSTMFitBitStable). It changes only when the predictor's arithmetic
// does: a faster kernel must keep every operand and every sum's order.
const lstmFitPin = "fd0736b89e95a88ae0863f4eb4c1709f7117cc5ad6eb13c38190e04464ad9c7d"

// TestLSTMFitBitStable pins training and prediction bit for bit: Fit at the
// default configuration on a fixed series, then a hash of the returned MSE,
// of every weight and of the prediction at every window of the series.
func TestLSTMFitBitStable(t *testing.T) {
	series := make([]float64, 120)
	for i := range series {
		series[i] = 0.5 + 0.3*math.Sin(float64(i)/7) + 0.1*math.Cos(float64(i)/3)
	}
	n := NewLSTM(DefaultLSTMConfig(4))
	mse := n.Fit(series, 3)

	h := sha256.New()
	putFloat(h, mse)
	for _, p := range n.params {
		for _, w := range p.w {
			putFloat(h, w)
		}
	}
	W := n.cfg.Window
	for i := 0; i+W <= len(series); i++ {
		putFloat(h, n.Predict(series[i:i+W]))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != lstmFitPin {
		t.Errorf("LSTM fit hash = %s, want %s", got, lstmFitPin)
	}
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
