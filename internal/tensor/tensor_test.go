package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float32, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol
}

func TestFromSliceAndAccessors(t *testing.T) {
	m, err := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Errorf("At wrong")
	}
	m.Set(1, 1, 9)
	if m.Row(1)[1] != 9 {
		t.Errorf("Set/Row wrong")
	}
	if _, err := FromSlice(2, 3, []float32{1}); err == nil {
		t.Errorf("bad length accepted")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Errorf("Clone aliases")
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b, _ := FromSlice(2, 2, []float32{5, 6, 7, 8})
	out, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("matmul = %v, want %v", out.Data, want)
		}
	}
	if _, err := MatMul(a, New(3, 2)); err == nil {
		t.Errorf("shape mismatch accepted")
	}
}

func TestMatMulTEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 5)
	b := New(4, 5)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	// bT explicit.
	bt := New(5, 4)
	for i := 0; i < b.R; i++ {
		for j := 0; j < b.C; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	viaT, err := MatMulT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MatMul(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaT.Data {
		if !approx(viaT.Data[i], direct.Data[i], 1e-4) {
			t.Fatalf("MatMulT diverges at %d", i)
		}
	}
	if _, err := MatMulT(a, New(4, 6)); err == nil {
		t.Errorf("shape mismatch accepted")
	}
}

func TestAddBiasAddMulScale(t *testing.T) {
	m, _ := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if err := m.AddBias([]float32{10, 20}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Errorf("AddBias wrong: %v", m.Data)
	}
	if err := m.AddBias([]float32{1}); err == nil {
		t.Errorf("bad bias accepted")
	}
	o, _ := FromSlice(2, 2, []float32{1, 1, 1, 1})
	if err := m.Add(o); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 12 {
		t.Errorf("Add wrong")
	}
	if err := m.Add(New(1, 1)); err == nil {
		t.Errorf("bad add accepted")
	}
	if err := m.Mul(o); err != nil {
		t.Fatal(err)
	}
	if err := m.Mul(New(3, 3)); err == nil {
		t.Errorf("bad mul accepted")
	}
}

func TestLayerNorm(t *testing.T) {
	x, _ := FromSlice(1, 4, []float32{1, 2, 3, 4})
	gamma := []float32{1, 1, 1, 1}
	beta := []float32{0, 0, 0, 0}
	out := New(1, 4)
	if err := LayerNormInto(x, gamma, beta, 1e-5, out); err != nil {
		t.Fatal(err)
	}
	var mean, varsum float64
	for _, v := range out.Row(0) {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range out.Row(0) {
		varsum += (float64(v) - mean) * (float64(v) - mean)
	}
	if math.Abs(mean) > 1e-5 || math.Abs(varsum/4-1) > 1e-3 {
		t.Errorf("layernorm mean=%v var=%v", mean, varsum/4)
	}
	// Gamma/beta applied.
	out2 := New(1, 4)
	if err := LayerNormInto(x, []float32{2, 2, 2, 2}, []float32{1, 1, 1, 1}, 1e-5, out2); err != nil {
		t.Fatal(err)
	}
	for j := range out.Row(0) {
		want := out.At(0, j)*2 + 1
		if !approx(out2.At(0, j), want, 1e-4) {
			t.Errorf("gamma/beta wrong at %d", j)
		}
	}
	if err := LayerNormInto(x, []float32{1}, beta, 1e-5, New(1, 4)); err == nil {
		t.Errorf("bad gamma accepted")
	}
}

func TestRMSNorm(t *testing.T) {
	x, _ := FromSlice(1, 3, []float32{3, 4, 0})
	out := New(1, 3)
	if err := RMSNormInto(x, []float32{1, 1, 1}, 0, out); err != nil {
		t.Fatal(err)
	}
	// rms = sqrt(25/3); elements divide by it.
	rms := float32(math.Sqrt(25.0 / 3))
	if !approx(out.At(0, 0), 3/rms, 1e-5) || !approx(out.At(0, 1), 4/rms, 1e-5) {
		t.Errorf("rmsnorm = %v", out.Row(0))
	}
	if err := RMSNormInto(x, []float32{1}, 0, New(1, 3)); err == nil {
		t.Errorf("bad gamma accepted")
	}
}

func TestActivations(t *testing.T) {
	m, _ := FromSlice(1, 3, []float32{-2, 0, 2})
	g := m.Clone()
	g.GELU()
	if g.At(0, 1) != 0 {
		t.Errorf("GELU(0) = %v", g.At(0, 1))
	}
	if g.At(0, 2) < 1.9 || g.At(0, 2) > 2 {
		t.Errorf("GELU(2) = %v", g.At(0, 2))
	}
	if g.At(0, 0) > 0 || g.At(0, 0) < -0.1 {
		t.Errorf("GELU(-2) = %v", g.At(0, 0))
	}
	s := m.Clone()
	s.SiLU()
	if s.At(0, 1) != 0 {
		t.Errorf("SiLU(0) = %v", s.At(0, 1))
	}
	if !approx(s.At(0, 2), 2/(1+float32(math.Exp(-2))), 1e-5) {
		t.Errorf("SiLU(2) = %v", s.At(0, 2))
	}
}

func TestArgmaxRow(t *testing.T) {
	m, _ := FromSlice(2, 3, []float32{1, 5, 2, 7, 0, 7})
	if m.ArgmaxRow(0) != 1 {
		t.Errorf("argmax row0")
	}
	// Ties resolve to the first occurrence.
	if m.ArgmaxRow(1) != 0 {
		t.Errorf("argmax tie")
	}
}

// Property: matmul distributes over addition: (a+b)@c == a@c + b@c.
func TestMatMulLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(3, 4), New(3, 4), New(4, 2)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
			b.Data[i] = float32(rng.NormFloat64())
		}
		for i := range c.Data {
			c.Data[i] = float32(rng.NormFloat64())
		}
		sum := a.Clone()
		if err := sum.Add(b); err != nil {
			return false
		}
		lhs, err := MatMul(sum, c)
		if err != nil {
			return false
		}
		ac, _ := MatMul(a, c)
		bc, _ := MatMul(b, c)
		if err := ac.Add(bc); err != nil {
			return false
		}
		for i := range lhs.Data {
			if !approx(lhs.Data[i], ac.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
