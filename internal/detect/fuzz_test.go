package detect

import (
	"slices"
	"strings"
	"testing"

	"canvassing/internal/imaging"
)

// FuzzParseEventDetail feeds arbitrary details to ParseEventDetail,
// which the verdict service runs over every detect.classify event of a
// bundle it loads. A detail it accepts must carry non-negative
// dimensions and be one EventDetail writes: written back from the
// parsed fields, it splits into the same fields.
func FuzzParseEventDetail(f *testing.F) {
	for _, seed := range []string{
		EventDetail("https://x.com/fp.js", 240, 60, imaging.PNG),
		EventDetail("s", 0, 0, ""),
		"script=a -3x-4 png",
		"script=a 3x4junk png",
		"script=a +5x+6",
		"script=a 007x3 webp",
		"script=a 3x",
		"script=a 99999999999999999999x1 png",
		"script=script= 1x1\tjpeg",
		"script=x WxH image/png",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, detail string) {
		script, w, h, format, ok := ParseEventDetail(detail)
		if !ok {
			return
		}
		if w < 0 || h < 0 {
			t.Fatalf("ParseEventDetail(%q) gave dimensions %dx%d", detail, w, h)
		}
		back := EventDetail(script, w, h, format)
		if !slices.Equal(strings.Fields(back), strings.Fields(detail)) {
			t.Fatalf("ParseEventDetail(%q) writes back as %q", detail, back)
		}
	})
}
