package machine

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"canvassing/internal/stats"
)

func TestBuiltinProfilesDiffer(t *testing.T) {
	a, b := Intel(), AppleM1()
	if a.Name == b.Name || a.Seed == b.Seed {
		t.Fatal("built-in profiles must be distinct")
	}
	la, lb := a.CoverageLUT(), b.CoverageLUT()
	diff := 0
	for i := range la {
		if la[i] != lb[i] {
			diff++
		}
	}
	if diff < 32 {
		t.Fatalf("profiles should produce substantially different LUTs, got %d diffs", diff)
	}
}

func TestCoverageLUTEndpoints(t *testing.T) {
	for _, p := range Profiles() {
		lut := p.CoverageLUT()
		if lut[0] != 0 {
			t.Fatalf("%s: LUT[0] = %d, want 0", p.Name, lut[0])
		}
		if lut[255] != 255 {
			t.Fatalf("%s: LUT[255] = %d, want 255", p.Name, lut[255])
		}
	}
}

func TestCoverageLUTMonotone(t *testing.T) {
	for _, p := range append(Profiles(), Synthetic("x1"), Synthetic("x2")) {
		lut := p.CoverageLUT()
		for i := 1; i < 256; i++ {
			if lut[i] < lut[i-1] {
				t.Fatalf("%s: LUT not monotone at %d", p.Name, i)
			}
		}
	}
}

func TestCoverageLUTNonzeroPreserved(t *testing.T) {
	for _, p := range Profiles() {
		lut := p.CoverageLUT()
		for i := 1; i < 256; i++ {
			if lut[i] == 0 {
				t.Fatalf("%s: nonzero coverage %d mapped to zero", p.Name, i)
			}
		}
	}
}

func TestCoverageLUTDeterministic(t *testing.T) {
	p := Intel()
	a, b := p.CoverageLUT(), p.CoverageLUT()
	if *a != *b {
		t.Fatal("LUT must be deterministic")
	}
}

func TestGlyphOffsetDeterministic(t *testing.T) {
	p := Intel()
	dx1, dy1 := p.GlyphOffset('a', 10.25)
	dx2, dy2 := p.GlyphOffset('a', 10.25)
	if dx1 != dx2 || dy1 != dy2 {
		t.Fatal("glyph offset must be deterministic")
	}
	dx3, _ := p.GlyphOffset('b', 10.25)
	dx4, _ := p.GlyphOffset('a', 50.0)
	if dx1 == dx3 && dx1 == dx4 {
		t.Fatal("offset should depend on rune and position")
	}
}

func TestGlyphOffsetBounded(t *testing.T) {
	f := func(r rune, x float64) bool {
		if x != x || x > 1e12 || x < -1e12 { // NaN / huge
			return true
		}
		p := AppleM1()
		dx, dy := p.GlyphOffset(r, x)
		lim := p.SubpixelJitter + 1e-12
		return dx >= -lim && dx <= lim && dy >= -lim && dy <= lim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlyphOffsetDiffersAcrossMachines(t *testing.T) {
	i, m := Intel(), AppleM1()
	same := 0
	for _, r := range "Canvassing" {
		dxi, dyi := i.GlyphOffset(r, 12)
		dxm, dym := m.GlyphOffset(r, 12)
		if dxi == dxm && dyi == dym {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("machines should disagree on glyph placement, %d/10 same", same)
	}
}

func TestSyntheticStable(t *testing.T) {
	a := Synthetic("lab-42")
	b := Synthetic("lab-42")
	if *a != *b {
		t.Fatal("synthetic profile must be a pure function of its label")
	}
	c := Synthetic("lab-43")
	if a.Seed == c.Seed {
		t.Fatal("labels must decorrelate")
	}
	if a.Gamma < 0.8 || a.Gamma > 1.4 || a.AAStrength < 0.8 || a.AAStrength > 1.2 {
		t.Fatalf("synthetic parameters out of range: %+v", a)
	}
}

func TestUserAgentMentionsStack(t *testing.T) {
	ua := Intel().UserAgent()
	if ua == "" || ua == AppleM1().UserAgent() {
		t.Fatal("user agents should identify the stack")
	}
}

// TestGlyphOffsetMatchesFormatted pins GlyphOffset's hash key to the
// fmt.Sprintf("%d:%d:%d", seed, rune, q) key it was defined by, at the
// inputs where a hand-built decimal key could diverge: seeds with the
// top bit set, negative, NaN and infinite pen positions, and runes
// outside the BMP.
func TestGlyphOffsetMatchesFormatted(t *testing.T) {
	profiles := []*Profile{Intel(), AppleM1(), {Seed: math.MaxUint64, SubpixelJitter: 0.1}}
	for i, high := 0, 0; high < 2; i++ {
		if p := Synthetic(fmt.Sprint("glyph-", i)); p.Seed >= 1<<63 {
			profiles = append(profiles, p)
			high++
		}
	}
	formatted := func(p *Profile, r rune, penX float64) (dx, dy float64) {
		q := int64(penX * 4)
		h := stats.HashString(fmt.Sprintf("%d:%d:%d", p.Seed, r, q))
		dx = (float64(h&0xFF)/255 - 0.5) * 2 * p.SubpixelJitter
		dy = (float64((h>>8)&0xFF)/255 - 0.5) * 2 * p.SubpixelJitter
		return dx, dy
	}
	runes := []rune{0, 'a', 'W', ' ', 'é', 'Ж', '😃', '🙂', 0x1F600, 0x10FFFF, 0xFFFD}
	pens := []float64{0, 2, 13.37, -0.1, -7.25, -1e6, 1e18, -1e18, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, p := range profiles {
		for _, r := range runes {
			for _, x := range pens {
				gx, gy := p.GlyphOffset(r, x)
				wx, wy := formatted(p, r, x)
				if gx != wx || gy != wy {
					t.Errorf("seed %d rune %U penX %v: got (%v, %v), want (%v, %v)", p.Seed, r, x, gx, gy, wx, wy)
				}
			}
		}
	}
}

func TestGlyphOffsetAllocatesNothing(t *testing.T) {
	p := Synthetic("allocs")
	if n := testing.AllocsPerRun(100, func() { p.GlyphOffset('😃', -12.5) }); n != 0 {
		t.Fatalf("GlyphOffset: %v allocs, want 0", n)
	}
}
