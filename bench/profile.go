package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the modules a CPU sample can be attributed to. A sample
// belongs to the innermost frame of the canvassing module on its stack,
// so standard-library and runtime calls count toward their caller.
// "other" takes the canvassing packages outside this list (the study
// root, detect, cluster, attrib, ...); "runtime" takes samples with no
// canvassing frame at all (GC workers, the scheduler, net/http's
// connection handling).
var layers = []string{
	"jsvm", "raster", "canvas", "font", "geom", "imaging", "dom", "web",
	"blocklist", "crawler", "analysis", "checkpoint", "bundle", "obs",
	"serve", "other", "runtime",
}

// textFuncs are the canvas text entry points; canvas.text counts every
// sample with one of them anywhere on its stack.
var textFuncs = map[string]bool{
	"canvassing/internal/canvas.(*Context2D).FillText":    true,
	"canvassing/internal/canvas.(*Context2D).StrokeText":  true,
	"canvassing/internal/canvas.(*Context2D).MeasureText": true,
}

// layerCPU is the CPU time of one or more profiles, split by layer.
type layerCPU struct {
	TotalS float64            `json:"total_s"`
	TextS  float64            `json:"text_s"`
	Layers map[string]float64 `json:"layers"`
}

func (c *layerCPU) add(o *layerCPU) {
	if c.Layers == nil {
		c.Layers = map[string]float64{}
	}
	c.TotalS += o.TotalS
	c.TextS += o.TextS
	for k, v := range o.Layers {
		c.Layers[k] += v
	}
}

// layerOf maps a function name to its layer ("" outside the module).
func layerOf(fn string) string {
	const internal = "canvassing/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "canvassing.") || strings.HasPrefix(fn, "canvassing/"):
		return "other"
	}
	return ""
}

// attributeProfile reads a gzipped pprof CPU profile and splits its CPU
// time by layer.
func attributeProfile(path string) (*layerCPU, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	out := &layerCPU{Layers: map[string]float64{}}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, fmt.Errorf("profile %s: sample without a cpu value", path)
		}
		sec := float64(s.values[vi]) / 1e9
		layer, text := "", false
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				fn := p.str(p.functions[fid])
				if layer == "" {
					layer = layerOf(fn)
				}
				text = text || textFuncs[fn]
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		out.Layers[layer] += sec
		out.TotalS += sec
		if text {
			out.TextS += sec
		}
	}
	return out, nil
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locations, v, packed)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, packed); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends one repeated scalar field occurrence: a single
// varint, or a packed run of them.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls f for every field of a protobuf message: v holds a
// varint or fixed-width value, msg the bytes of a length-delimited one
// (nil otherwise).
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg = b[n : n+int(l) : n+int(l)] // never nil, even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return errBadProto
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and the bytes
// read (0 when b ends early, -1 on overflow).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b); i++ {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
