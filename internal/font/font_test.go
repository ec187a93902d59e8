package font

import (
	"testing"
	"testing/quick"
)

func TestParseFontBasic(t *testing.T) {
	f, ok := ParseFont("16px Arial")
	if !ok || f.SizePx != 16 || f.Family != "Arial" || f.Bold || f.Italic {
		t.Fatalf("parse: %+v ok=%v", f, ok)
	}
}

func TestParseFontPt(t *testing.T) {
	f, ok := ParseFont("11pt no-real-font-123")
	if !ok {
		t.Fatal("should parse")
	}
	want := 11.0 * 4 / 3
	if f.SizePx < want-0.01 || f.SizePx > want+0.01 {
		t.Fatalf("pt conversion: %v", f.SizePx)
	}
	if f.Family != "no-real-font-123" {
		t.Fatalf("family: %q", f.Family)
	}
}

func TestParseFontStyleWeight(t *testing.T) {
	f, ok := ParseFont("italic bold 20px Georgia")
	if !ok || !f.Italic || !f.Bold || f.SizePx != 20 {
		t.Fatalf("%+v", f)
	}
	f, ok = ParseFont("700 14px Verdana")
	if !ok || !f.Bold {
		t.Fatalf("numeric weight: %+v", f)
	}
	f, ok = ParseFont("300 14px Verdana")
	if !ok || f.Bold {
		t.Fatalf("light weight should not be bold: %+v", f)
	}
}

func TestParseFontQuotedFamily(t *testing.T) {
	f, ok := ParseFont(`18px 'Courier New'`)
	if !ok || f.Family != "Courier New" {
		t.Fatalf("%+v ok=%v", f, ok)
	}
	f, ok = ParseFont(`18px "Times New Roman", serif`)
	if !ok || f.Family != "Times New Roman" {
		t.Fatalf("family list: %+v", f)
	}
}

func TestParseFontInvalid(t *testing.T) {
	for _, bad := range []string{"", "Arial", "px Arial", "0px Arial", "-5px Arial", "16px"} {
		if _, ok := ParseFont(bad); ok {
			t.Fatalf("%q should not parse", bad)
		}
	}
}

func TestParseFontEm(t *testing.T) {
	f, ok := ParseFont("2em serif")
	if !ok || f.SizePx != 32 {
		t.Fatalf("em: %+v", f)
	}
}

func TestMeasurePositive(t *testing.T) {
	f := Font{SizePx: 16, Family: "Arial"}
	w := Measure("Hello, world!", f)
	if w <= 0 {
		t.Fatal("width must be positive")
	}
	if Measure("", f) != 0 {
		t.Fatal("empty string measures 0")
	}
	if Measure("iii", f) >= Measure("WWW", f) {
		t.Fatal("narrow glyphs should measure less than wide ones")
	}
}

func TestMeasureScalesWithSize(t *testing.T) {
	small := Measure("abc", Font{SizePx: 10, Family: "x"})
	big := Measure("abc", Font{SizePx: 20, Family: "x"})
	if big < small*1.99 || big > small*2.01 {
		t.Fatalf("measure should scale linearly: %v vs %v", small, big)
	}
}

func TestFamilyChangesMetrics(t *testing.T) {
	a := Measure("fingerprint", Font{SizePx: 16, Family: "Arial"})
	b := Measure("fingerprint", Font{SizePx: 16, Family: "Georgia"})
	if a == b {
		t.Fatal("different families should measure differently")
	}
	// Same family always identical.
	if a != Measure("fingerprint", Font{SizePx: 16, Family: "Arial"}) {
		t.Fatal("same family must be deterministic")
	}
}

func TestMetricsNeutralDefault(t *testing.T) {
	m := Metrics("sans-serif")
	if m.WidthFactor != 1 || m.SlantRad != 0 || m.WeightBoost != 0 {
		t.Fatalf("default family should be neutral: %+v", m)
	}
	m2 := Metrics("  SANS-SERIF ")
	if m2 != m {
		t.Fatal("family normalization")
	}
}

func TestMetricsRanges(t *testing.T) {
	f := func(fam string) bool {
		m := Metrics(fam)
		return m.WidthFactor > 0.5 && m.WidthFactor < 1.5 &&
			m.SlantRad > -0.1 && m.SlantRad < 0.1 &&
			m.WeightBoost >= 0 && m.WeightBoost < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutAdvances(t *testing.T) {
	glyphs, width := Layout("AB", Font{SizePx: 20, Family: "sans-serif"}, 10, 50)
	if len(glyphs) != 2 {
		t.Fatalf("glyph count = %d", len(glyphs))
	}
	if width <= 0 {
		t.Fatal("layout width")
	}
	// Second glyph should start right of the first.
	if len(glyphs[0].Strokes) == 0 || len(glyphs[1].Strokes) == 0 {
		t.Fatal("letters should have strokes")
	}
	maxX0 := 0.0
	for _, s := range glyphs[0].Strokes {
		for _, p := range s {
			if p.X > maxX0 {
				maxX0 = p.X
			}
		}
	}
	minX1 := 1e9
	for _, s := range glyphs[1].Strokes {
		for _, p := range s {
			if p.X < minX1 {
				minX1 = p.X
			}
		}
	}
	if minX1 <= maxX0-1 {
		t.Fatalf("glyphs overlap badly: %v vs %v", maxX0, minX1)
	}
}

func TestLayoutBaseline(t *testing.T) {
	glyphs, _ := Layout("A", Font{SizePx: 20, Family: "sans-serif"}, 0, 100)
	for _, s := range glyphs[0].Strokes {
		for _, p := range s {
			if p.Y > 100.001 {
				t.Fatalf("capital A should sit on the baseline, got y=%v", p.Y)
			}
			if p.Y < 100-15 {
				t.Fatalf("A exceeds cap height: y=%v", p.Y)
			}
		}
	}
	// Descender letter dips below baseline.
	glyphs, _ = Layout("g", Font{SizePx: 20, Family: "sans-serif"}, 0, 100)
	below := false
	for _, s := range glyphs[0].Strokes {
		for _, p := range s {
			if p.Y > 100.5 {
				below = true
			}
		}
	}
	if !below {
		t.Fatal("g should descend below the baseline")
	}
}

func TestLayoutSpace(t *testing.T) {
	glyphs, width := Layout(" ", Font{SizePx: 16, Family: "sans-serif"}, 0, 0)
	if len(glyphs) != 1 || len(glyphs[0].Strokes) != 0 {
		t.Fatal("space should lay out with no strokes")
	}
	if width <= 0 {
		t.Fatal("space should advance")
	}
}

func TestNotdefFallback(t *testing.T) {
	glyphs, _ := Layout("ف", Font{SizePx: 16, Family: "x"}, 0, 0) // Arabic letter, uncovered
	if len(glyphs) != 1 || len(glyphs[0].Strokes) == 0 {
		t.Fatal("uncovered rune should render the notdef box")
	}
}

func TestEmojiGlyph(t *testing.T) {
	glyphs, _ := Layout("\U0001F603", Font{SizePx: 20, Family: "x"}, 0, 50)
	if len(glyphs) != 1 || !glyphs[0].Emoji {
		t.Fatal("emoji should be flagged")
	}
	if len(glyphs[0].Strokes) < 4 {
		t.Fatal("emoji should have face, eyes and mouth")
	}
	// Two different emoji render differently.
	a, _ := Layout("\U0001F603", Font{SizePx: 20, Family: "x"}, 0, 50)
	b, _ := Layout("\U0001F61C", Font{SizePx: 20, Family: "x"}, 0, 50)
	same := true
	for i := range a[0].Strokes {
		if len(a[0].Strokes[i]) != len(b[0].Strokes[i]) {
			same = false
			break
		}
		for j := range a[0].Strokes[i] {
			if a[0].Strokes[i][j] != b[0].Strokes[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("distinct emoji must produce distinct geometry")
	}
}

func TestItalicSlants(t *testing.T) {
	up, _ := Layout("l", Font{SizePx: 40, Family: "sans-serif"}, 0, 100)
	it, _ := Layout("l", Font{SizePx: 40, Family: "sans-serif", Italic: true}, 0, 100)
	// The top of an italic 'l' should lean right of the upright one.
	topUp := up[0].Strokes[0][1]
	topIt := it[0].Strokes[0][1]
	if topIt.X <= topUp.X {
		t.Fatalf("italic should slant right: %v vs %v", topIt.X, topUp.X)
	}
}

func TestLineWidth(t *testing.T) {
	normal := LineWidth(Font{SizePx: 16, Family: "sans-serif"})
	bold := LineWidth(Font{SizePx: 16, Family: "sans-serif", Bold: true})
	if bold <= normal {
		t.Fatal("bold should be heavier")
	}
	tiny := LineWidth(Font{SizePx: 1, Family: "sans-serif"})
	if tiny < 0.8 {
		t.Fatal("line width should be floored")
	}
}

func TestAscentDescent(t *testing.T) {
	f := Font{SizePx: 20, Family: "x"}
	if Ascent(f) != 14 || Descent(f) != 4 {
		t.Fatalf("ascent=%v descent=%v", Ascent(f), Descent(f))
	}
}

func TestAllASCIIGlyphsPresent(t *testing.T) {
	for r := rune(32); r < 127; r++ {
		if _, ok := glyphData[r]; !ok {
			t.Fatalf("missing glyph for %q", r)
		}
	}
}

func TestGlyphDataParses(t *testing.T) {
	for r := range glyphData {
		g := lookupGlyph(r)
		if g.adv <= 0 {
			t.Fatalf("glyph %q has non-positive advance", r)
		}
		for _, s := range g.strokes {
			if len(s) < 2 {
				t.Fatalf("glyph %q has degenerate stroke", r)
			}
			for _, p := range s {
				if p.X < 0 || p.X > 12 || p.Y < -4 || p.Y > 14 {
					t.Fatalf("glyph %q point %v outside grid", r, p)
				}
			}
		}
	}
}

// TestMeasureUncoveredRunesAllocFree: runes the font lacks share one
// notdef glyph, so measuring text made of runes never seen before
// allocates nothing — no per-rune table grows for the life of the
// process.
func TestMeasureUncoveredRunesAllocFree(t *testing.T) {
	const runs = 100
	texts := make([]string, runs+1) // AllocsPerRun adds one warm-up call
	next := rune(0x4E00)            // CJK ideographs
	for i := range texts {
		rs := []rune{next, next + 1, next + 2}
		for _, r := range rs {
			if _, ok := glyphData[r]; ok {
				t.Fatalf("font covers %q; the test needs uncovered runes", r)
			}
		}
		texts[i] = string(rs)
		next += 3
	}
	f := DefaultFont()
	want := 3 * Measure("\uFFFF", f)
	call := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if w := Measure(texts[call], f); w != want {
			t.Fatalf("Measure(%q) = %v, want three notdef advances %v", texts[call], w, want)
		}
		call++
	})
	if allocs != 0 {
		t.Fatalf("Measure over fresh uncovered runes allocates %.0f times per call, want 0", allocs)
	}
}

// Property: Measure is additive over concatenation.
func TestMeasureAdditiveProperty(t *testing.T) {
	f := func(a, b string) bool {
		ft := Font{SizePx: 16, Family: "Arial"}
		sum := Measure(a, ft) + Measure(b, ft)
		got := Measure(a+b, ft)
		diff := sum - got
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*(1+sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLayoutPangram(b *testing.B) {
	f := Font{SizePx: 16, Family: "Arial"}
	for i := 0; i < b.N; i++ {
		Layout("Cwm fjordbank glyphs vext quiz, \U0001F603", f, 2, 15)
	}
}
