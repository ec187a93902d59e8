package canvas

import (
	"math"
	"strconv"
	"strings"

	"canvassing/internal/raster"
)

// namedColors is the subset of CSS named colors that appear in real
// fingerprinting scripts and common page scripts.
var namedColors = map[string]raster.RGBA{
	"black":       {R: 0, G: 0, B: 0, A: 255},
	"white":       {R: 255, G: 255, B: 255, A: 255},
	"red":         {R: 255, G: 0, B: 0, A: 255},
	"green":       {R: 0, G: 128, B: 0, A: 255},
	"lime":        {R: 0, G: 255, B: 0, A: 255},
	"blue":        {R: 0, G: 0, B: 255, A: 255},
	"yellow":      {R: 255, G: 255, B: 0, A: 255},
	"orange":      {R: 255, G: 165, B: 0, A: 255},
	"purple":      {R: 128, G: 0, B: 128, A: 255},
	"magenta":     {R: 255, G: 0, B: 255, A: 255},
	"fuchsia":     {R: 255, G: 0, B: 255, A: 255},
	"cyan":        {R: 0, G: 255, B: 255, A: 255},
	"aqua":        {R: 0, G: 255, B: 255, A: 255},
	"gray":        {R: 128, G: 128, B: 128, A: 255},
	"grey":        {R: 128, G: 128, B: 128, A: 255},
	"silver":      {R: 192, G: 192, B: 192, A: 255},
	"maroon":      {R: 128, G: 0, B: 0, A: 255},
	"navy":        {R: 0, G: 0, B: 128, A: 255},
	"teal":        {R: 0, G: 128, B: 128, A: 255},
	"olive":       {R: 128, G: 128, B: 0, A: 255},
	"pink":        {R: 255, G: 192, B: 203, A: 255},
	"gold":        {R: 255, G: 215, B: 0, A: 255},
	"tomato":      {R: 255, G: 99, B: 71, A: 255},
	"orchid":      {R: 218, G: 112, B: 214, A: 255},
	"coral":       {R: 255, G: 127, B: 80, A: 255},
	"salmon":      {R: 250, G: 128, B: 114, A: 255},
	"khaki":       {R: 240, G: 230, B: 140, A: 255},
	"indigo":      {R: 75, G: 0, B: 130, A: 255},
	"violet":      {R: 238, G: 130, B: 238, A: 255},
	"brown":       {R: 165, G: 42, B: 42, A: 255},
	"transparent": {},
}

// ParseColor parses a CSS color string: named colors, #rgb, #rgba,
// #rrggbb, #rrggbbaa, rgb(...) and rgba(...). It reports whether the
// string was understood; callers keep the previous style on failure, as
// browsers do for invalid fillStyle assignments.
func ParseColor(s string) (raster.RGBA, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	if c, ok := namedColors[s]; ok {
		return c, true
	}
	if strings.HasPrefix(s, "#") {
		return parseHexColor(s[1:])
	}
	if strings.HasPrefix(s, "rgb(") && strings.HasSuffix(s, ")") {
		return parseRGBFunc(s[4:len(s)-1], false)
	}
	if strings.HasPrefix(s, "rgba(") && strings.HasSuffix(s, ")") {
		return parseRGBFunc(s[5:len(s)-1], true)
	}
	if strings.HasPrefix(s, "hsl(") && strings.HasSuffix(s, ")") {
		return parseHSLFunc(s[4 : len(s)-1])
	}
	return raster.RGBA{}, false
}

func parseHexColor(h string) (raster.RGBA, bool) {
	nib := func(c byte) (uint8, bool) {
		switch {
		case c >= '0' && c <= '9':
			return c - '0', true
		case c >= 'a' && c <= 'f':
			return c - 'a' + 10, true
		}
		return 0, false
	}
	byteAt := func(i int) (uint8, bool) {
		hi, ok1 := nib(h[i])
		lo, ok2 := nib(h[i+1])
		return hi<<4 | lo, ok1 && ok2
	}
	switch len(h) {
	case 3, 4:
		var v [4]uint8
		v[3] = 255
		for i := 0; i < len(h); i++ {
			n, ok := nib(h[i])
			if !ok {
				return raster.RGBA{}, false
			}
			v[i] = n<<4 | n
		}
		return raster.RGBA{R: v[0], G: v[1], B: v[2], A: v[3]}, true
	case 6, 8:
		var v [4]uint8
		v[3] = 255
		for i := 0; i*2 < len(h); i++ {
			b, ok := byteAt(i * 2)
			if !ok {
				return raster.RGBA{}, false
			}
			v[i] = b
		}
		return raster.RGBA{R: v[0], G: v[1], B: v[2], A: v[3]}, true
	}
	return raster.RGBA{}, false
}

func parseRGBFunc(body string, hasAlpha bool) (raster.RGBA, bool) {
	parts := strings.Split(body, ",")
	want := 3
	if hasAlpha {
		want = 4
	}
	// rgb() also tolerates a 4th component in browsers.
	if len(parts) != want && !(len(parts) == 4 && !hasAlpha) {
		return raster.RGBA{}, false
	}
	var ch [3]uint8
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
		if err != nil {
			return raster.RGBA{}, false
		}
		ch[i] = clampChan(v)
	}
	a := uint8(255)
	if len(parts) == 4 {
		av, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err != nil {
			return raster.RGBA{}, false
		}
		if av < 0 {
			av = 0
		}
		if av > 1 {
			av = 1
		}
		a = uint8(av*255 + 0.5)
	}
	return raster.RGBA{R: ch[0], G: ch[1], B: ch[2], A: a}, true
}

func parseHSLFunc(body string) (raster.RGBA, bool) {
	parts := strings.Split(body, ",")
	if len(parts) != 3 {
		return raster.RGBA{}, false
	}
	h, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	sStr := strings.TrimSpace(parts[1])
	lStr := strings.TrimSpace(parts[2])
	if !strings.HasSuffix(sStr, "%") || !strings.HasSuffix(lStr, "%") || err1 != nil {
		return raster.RGBA{}, false
	}
	s, err2 := strconv.ParseFloat(strings.TrimSuffix(sStr, "%"), 64)
	l, err3 := strconv.ParseFloat(strings.TrimSuffix(lStr, "%"), 64)
	if err2 != nil || err3 != nil {
		return raster.RGBA{}, false
	}
	r, g, b := hslToRGB(h, s/100, l/100)
	return raster.RGBA{R: r, G: g, B: b, A: 255}, true
}

func hslToRGB(h, s, l float64) (uint8, uint8, uint8) {
	h = h - 360*float64(int(h/360))
	if h < 0 {
		h += 360
	}
	c := (1 - abs(2*l-1)) * s
	x := c * (1 - abs(mod2(h/60)-1))
	m := l - c/2
	var r, g, b float64
	switch {
	case h < 60:
		r, g, b = c, x, 0
	case h < 120:
		r, g, b = x, c, 0
	case h < 180:
		r, g, b = 0, c, x
	case h < 240:
		r, g, b = 0, x, c
	case h < 300:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	return clampChan((r + m) * 255), clampChan((g + m) * 255), clampChan((b + m) * 255)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// mod2 reduces v into [0, 2). math.Mod is exact, as repeated
// subtraction of 2 is wherever it ends; for a hue like 1e300 it never
// would.
func mod2(v float64) float64 {
	v = math.Mod(v, 2)
	if v < 0 {
		v += 2
	}
	return v
}

func clampChan(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
