package workload

import "testing"

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(1, 0); err == nil {
		t.Errorf("zero vocab accepted")
	}
	if _, err := NewGenerator(1, -5); err == nil {
		t.Errorf("negative vocab accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := NewGenerator(42, 1000)
	g2, _ := NewGenerator(42, 1000)
	p1, _ := g1.NaturalPrompts(5, 64, 256)
	p2, _ := g2.NaturalPrompts(5, 64, 256)
	for i := range p1 {
		if p1[i].Len() != p2[i].Len() {
			t.Fatalf("same seed diverged at prompt %d length", i)
		}
		for j := range p1[i].Tokens {
			if p1[i].Tokens[j] != p2[i].Tokens[j] {
				t.Fatalf("same seed diverged at prompt %d token %d", i, j)
			}
		}
	}
}

func TestNaturalPrompts(t *testing.T) {
	g, _ := NewGenerator(3, 50272)
	ps, err := g.NaturalPrompts(500, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	shorter, longer := 0, 0
	for _, p := range ps {
		if p.Len() < 1 || p.Len() > 2048 {
			t.Fatalf("length %d outside [1, 2048]", p.Len())
		}
		if p.Len() < 128 {
			shorter++
		}
		if p.Len() > 128 {
			longer++
		}
		for _, tok := range p.Tokens {
			if tok < 0 || tok >= 50272 {
				t.Fatalf("token %d outside vocab", tok)
			}
		}
	}
	// Log-normal around the median: both sides populated.
	if shorter < 100 || longer < 100 {
		t.Errorf("length distribution degenerate: %d shorter, %d longer", shorter, longer)
	}
}

// NaturalPrompts returns exactly the count asked for, and rejects a
// negative count, a non-positive median and a cap below the median.
func TestNaturalPromptsValidation(t *testing.T) {
	g, err := NewGenerator(7, 50272)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 10} {
		ps, err := g.NaturalPrompts(n, 128, 128)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != n {
			t.Errorf("asked for %d prompts, got %d", n, len(ps))
		}
		for _, p := range ps {
			if p.Len() < 1 || p.Len() > 128 {
				t.Errorf("length %d outside [1, 128] with the cap at the median", p.Len())
			}
		}
	}
	if _, err := g.NaturalPrompts(1, 0, 100); err == nil {
		t.Errorf("zero median accepted")
	}
	if _, err := g.NaturalPrompts(1, 100, 50); err == nil {
		t.Errorf("max below median accepted")
	}
	if _, err := g.NaturalPrompts(-1, 128, 256); err == nil {
		t.Errorf("negative count accepted")
	}
}
