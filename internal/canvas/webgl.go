package canvas

import (
	"fmt"
	"math"

	"canvassing/internal/geom"
	"canvassing/internal/raster"
)

// WebGL-lite: the minimal WebGL1 surface canvas fingerprinting scripts
// touch (§2 mentions "the same text or WebGL scene"). It is NOT a GL
// implementation — shaders are accepted and ignored, and the fixed
// pipeline renders buffered TRIANGLE/TRIANGLE_STRIP vertices in clip
// space with a machine-perturbed shading gradient. What matters for the
// study holds: getParameter exposes the machine's GPU strings, and the
// rendered scene is deterministic per machine and different across
// machines.

// GL constants (the real enum values, so scripts can use literals).
const (
	GLVendor                = 0x1F00
	GLRenderer              = 0x1F01
	GLVersion               = 0x1F02
	GLShadingLanguage       = 0x8B8C
	GLUnmaskedVendorWebGL   = 0x9245
	GLUnmaskedRendererWebGL = 0x9246
	GLMaxTextureSize        = 0x0D33
	GLColorBufferBit        = 0x00004000
	GLDepthBufferBit        = 0x00000100
	GLTriangles             = 0x0004
	GLTriangleStrip         = 0x0005
	GLVertexShader          = 0x8B31
	GLFragmentShader        = 0x8B30
	GLArrayBuffer           = 0x8892
)

// WebGLContext is the "webgl" context of an Element.
type WebGLContext struct {
	el         *Element
	r          raster.Rasterizer // reused for every triangle
	clearR     float64
	clearG     float64
	clearB     float64
	clearA     float64
	buffer     []float64 // bound ARRAY_BUFFER contents
	vertexSize int       // floats per vertex (default 2)
	handleSeq  int
}

func newWebGLContext(e *Element) *WebGLContext {
	return &WebGLContext{el: e, vertexSize: 2, clearA: 1}
}

func (g *WebGLContext) trace(member string, args []string, ret string) {
	if g.el.tracer != nil {
		g.el.tracer.Trace("WebGLRenderingContext", member, args, ret)
	}
}

// GetParameter implements gl.getParameter for the fingerprint-relevant
// names; unknown parameters return "".
func (g *WebGLContext) GetParameter(pname int) string {
	p := g.el.profile
	var out string
	switch pname {
	case GLVendor:
		out = "WebKit"
	case GLRenderer:
		out = "WebKit WebGL"
	case GLVersion:
		out = "WebGL 1.0 (OpenGL ES 2.0 " + p.Name + ")"
	case GLShadingLanguage:
		out = "WebGL GLSL ES 1.0"
	case GLUnmaskedVendorWebGL:
		out = p.OS
	case GLUnmaskedRendererWebGL:
		out = p.GPU
	case GLMaxTextureSize:
		out = fmt.Sprint(4096 + int(p.Seed%3)*4096)
	}
	g.trace("getParameter", []string{fmt.Sprint(pname)}, out)
	return out
}

// GetSupportedExtensions lists extensions; the set varies per machine,
// another classic fingerprinting surface.
func (g *WebGLContext) GetSupportedExtensions() []string {
	base := []string{
		"ANGLE_instanced_arrays",
		"EXT_blend_minmax",
		"OES_element_index_uint",
		"OES_standard_derivatives",
		"WEBGL_debug_renderer_info",
		"WEBGL_lose_context",
	}
	if g.el.profile.Seed%2 == 0 {
		base = append(base, "EXT_texture_filter_anisotropic")
	}
	if g.el.profile.Seed%3 == 0 {
		base = append(base, "OES_texture_float")
	}
	g.trace("getSupportedExtensions", nil, fmt.Sprint(len(base)))
	return base
}

// ClearColor implements gl.clearColor.
func (g *WebGLContext) ClearColor(r, gr, b, a float64) {
	g.trace("clearColor", []string{fstr(r), fstr(gr), fstr(b), fstr(a)}, "")
	g.clearR, g.clearG, g.clearB, g.clearA = clamp01(r), clamp01(gr), clamp01(b), clamp01(a)
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Clear implements gl.clear(mask): COLOR_BUFFER_BIT fills the canvas with
// the clear color.
func (g *WebGLContext) Clear(mask int) {
	g.trace("clear", []string{fmt.Sprint(mask)}, "")
	if mask&GLColorBufferBit == 0 {
		return
	}
	g.el.bitmap().Clear(raster.RGBA{
		R: uint8(g.clearR*255 + 0.5),
		G: uint8(g.clearG*255 + 0.5),
		B: uint8(g.clearB*255 + 0.5),
		A: uint8(g.clearA*255 + 0.5),
	})
}

// CreateHandle backs createShader/createProgram/createBuffer: scripts
// only need distinct truthy handles.
func (g *WebGLContext) CreateHandle(kind string) int {
	g.handleSeq++
	g.trace("create"+kind, nil, fmt.Sprint(g.handleSeq))
	return g.handleSeq
}

// NoopCall records shader-pipeline calls that the fixed pipeline ignores
// (shaderSource, compileShader, attachShader, linkProgram, useProgram,
// vertexAttribPointer, enableVertexAttribArray, bindBuffer).
func (g *WebGLContext) NoopCall(member string, args ...string) {
	g.trace(member, args, "")
}

// BufferData stores vertex data (floats) into the bound ARRAY_BUFFER.
func (g *WebGLContext) BufferData(data []float64) {
	g.trace("bufferData", []string{fmt.Sprintf("[%d floats]", len(data))}, "")
	g.buffer = append(g.buffer[:0], data...)
}

// SetVertexSize configures floats-per-vertex (vertexAttribPointer's size
// argument); only 2 and 3 are meaningful here.
func (g *WebGLContext) SetVertexSize(n int) {
	if n >= 2 && n <= 4 {
		g.vertexSize = n
	}
}

// DrawArrays implements gl.drawArrays for TRIANGLES and TRIANGLE_STRIP
// over the buffered vertices. Vertices are clip-space (x, y in [-1, 1]);
// the fixed "shader" colors fragments with a position-dependent gradient
// whose anti-aliased edges carry the machine's coverage perturbation.
func (g *WebGLContext) DrawArrays(mode, first, count int) {
	g.trace("drawArrays", []string{fmt.Sprint(mode), fmt.Sprint(first), fmt.Sprint(count)}, "")
	verts := g.vertices(first, count)
	if len(verts) < 3 {
		return
	}
	var tris [][3]geom.Point
	switch mode {
	case GLTriangles:
		for i := 0; i+2 < len(verts); i += 3 {
			tris = append(tris, [3]geom.Point{verts[i], verts[i+1], verts[i+2]})
		}
	case GLTriangleStrip:
		for i := 0; i+2 < len(verts); i++ {
			tris = append(tris, [3]geom.Point{verts[i], verts[i+1], verts[i+2]})
		}
	default:
		return
	}
	img := g.el.bitmap()
	w, h := float64(img.W), float64(img.H)
	paint := raster.NewLinearGradient(0, 0, w, h)
	paint.AddStop(0, raster.RGBA{R: 255, G: 102, B: 0, A: 255})
	paint.AddStop(0.5, raster.RGBA{R: 0, G: 102, B: 153, A: 255})
	paint.AddStop(1, raster.RGBA{R: 102, G: 204, B: 0, A: 255})
	for _, tri := range tris {
		g.r.Reset()
		var device [3]geom.Point
		for i, v := range tri {
			// Clip space → device space (y flips, as GL's does).
			device[i] = geom.Pt((v.X+1)/2*w, (1-(v.Y+1)/2)*h)
		}
		g.r.AddPolygon(device[:])
		g.r.Rasterize(img, paint, raster.Options{
			Alpha:       255,
			CoverageLUT: g.el.profile.CoverageLUT(),
		})
	}
}

// vertices returns the buffered vertices [first, first+count). A
// negative first draws nothing, as WebGL's INVALID_VALUE does, and one
// past the buffer is checked before first is scaled by the vertex size,
// which could overflow.
func (g *WebGLContext) vertices(first, count int) []geom.Point {
	if first < 0 || first >= len(g.buffer) {
		return nil
	}
	var out []geom.Point
	for i := first; i < first+count; i++ {
		base := i * g.vertexSize
		if base+1 >= len(g.buffer) {
			break
		}
		out = append(out, geom.Pt(g.buffer[base], g.buffer[base+1]))
	}
	return out
}
