package workload

import (
	"testing"
	"testing/quick"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(1, 0); err == nil {
		t.Errorf("zero vocab accepted")
	}
	if _, err := NewGenerator(1, -5); err == nil {
		t.Errorf("negative vocab accepted")
	}
}

func TestPromptsFixedLength(t *testing.T) {
	g, err := NewGenerator(7, 50272)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := g.Prompts(10, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 10 {
		t.Fatalf("got %d prompts", len(ps))
	}
	ids := map[int]bool{}
	for _, p := range ps {
		if p.Len() != 128 {
			t.Errorf("prompt %d len = %d, want 128", p.ID, p.Len())
		}
		if ids[p.ID] {
			t.Errorf("duplicate prompt id %d", p.ID)
		}
		ids[p.ID] = true
		if p.Source != p.ID {
			t.Errorf("original prompt %d has source %d", p.ID, p.Source)
		}
		for _, tok := range p.Tokens {
			if tok < 0 || tok >= 50272 {
				t.Fatalf("token %d outside vocab", tok)
			}
		}
	}
	if _, err := g.Prompts(-1, 128); err == nil {
		t.Errorf("negative count accepted")
	}
	if _, err := g.Prompts(1, 0); err == nil {
		t.Errorf("zero length accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := NewGenerator(42, 1000)
	g2, _ := NewGenerator(42, 1000)
	p1, _ := g1.Prompts(5, 64)
	p2, _ := g2.Prompts(5, 64)
	for i := range p1 {
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
	}
	// Log-normal around the median: both sides populated.
	if shorter < 100 || longer < 100 {
		t.Errorf("length distribution degenerate: %d shorter, %d longer", shorter, longer)
	}
	if _, err := g.NaturalPrompts(1, 0, 100); err == nil {
		t.Errorf("zero median accepted")
	}
	if _, err := g.NaturalPrompts(1, 100, 50); err == nil {
		t.Errorf("max below median accepted")
	}
}

func TestRepeatProtocol(t *testing.T) {
	g, _ := NewGenerator(1, 100)
	base, _ := g.Prompts(3, 16)
	rep, err := Repeat(base, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 30 {
		t.Fatalf("len = %d, want 30 (§III-B repeat 10)", len(rep))
	}
	counts := map[int]int{}
	ids := map[int]bool{}
	for _, p := range rep {
		counts[p.Source]++
		if ids[p.ID] {
			t.Fatalf("duplicate id %d after repeat", p.ID)
		}
		ids[p.ID] = true
	}
	for _, b := range base {
		if counts[b.ID] != 10 {
			t.Errorf("prompt %d repeated %d times", b.ID, counts[b.ID])
		}
	}
	if _, err := Repeat(base, 0); err == nil {
		t.Errorf("zero repeats accepted")
	}
}

// Property: repeats preserve token content exactly.
func TestRepeatPreservesTokensProperty(t *testing.T) {
	f := func(seed int64, times uint8) bool {
		g, err := NewGenerator(seed, 500)
		if err != nil {
			return false
		}
		base, err := g.Prompts(4, 8)
		if err != nil {
			return false
		}
		n := int(times%5) + 1
		rep, err := Repeat(base, n)
		if err != nil {
			return false
		}
		byID := map[int]Prompt{}
		for _, b := range base {
			byID[b.ID] = b
		}
		for _, p := range rep {
			orig := byID[p.Source]
			if len(p.Tokens) != len(orig.Tokens) {
				return false
			}
			for i := range p.Tokens {
				if p.Tokens[i] != orig.Tokens[i] {
					return false
				}
			}
		}
		return len(rep) == 4*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
