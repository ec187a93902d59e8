package dom

import (
	"canvassing/internal/canvas"
	"canvassing/internal/jsvm"
)

// webglHost exposes the WebGL-lite context to scripts: GL constants as
// properties, the fingerprint-relevant getters, and the fixed-pipeline
// drawing subset.
type webglHost struct {
	gl      *canvas.WebGLContext
	natives methods
}

// glConstants maps the property names scripts use to enum values.
var glConstants = map[string]int{
	"VENDOR":                   canvas.GLVendor,
	"RENDERER":                 canvas.GLRenderer,
	"VERSION":                  canvas.GLVersion,
	"SHADING_LANGUAGE_VERSION": canvas.GLShadingLanguage,
	"UNMASKED_VENDOR_WEBGL":    canvas.GLUnmaskedVendorWebGL,
	"UNMASKED_RENDERER_WEBGL":  canvas.GLUnmaskedRendererWebGL,
	"MAX_TEXTURE_SIZE":         canvas.GLMaxTextureSize,
	"COLOR_BUFFER_BIT":         canvas.GLColorBufferBit,
	"DEPTH_BUFFER_BIT":         canvas.GLDepthBufferBit,
	"TRIANGLES":                canvas.GLTriangles,
	"TRIANGLE_STRIP":           canvas.GLTriangleStrip,
	"VERTEX_SHADER":            canvas.GLVertexShader,
	"FRAGMENT_SHADER":          canvas.GLFragmentShader,
	"ARRAY_BUFFER":             canvas.GLArrayBuffer,
	"STATIC_DRAW":              0x88E4,
}

// noopMembers are pipeline calls the fixed renderer accepts and ignores.
var noopMembers = map[string]bool{
	"shaderSource": true, "compileShader": true, "attachShader": true,
	"linkProgram": true, "useProgram": true, "bindBuffer": true,
	"enableVertexAttribArray": true, "viewport": true, "enable": true,
	"disable": true, "depthFunc": true, "getExtension": true,
}

func (h *webglHost) HostGet(name string) (jsvm.Value, bool) {
	if c, ok := glConstants[name]; ok {
		return jsvm.Number(float64(c)), true
	}
	if name == "__string__" {
		return jsvm.String("[object WebGLRenderingContext]"), true
	}
	return h.natives.get(name, h.method)
}

func (h *webglHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "getParameter":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) == 0 {
				return jsvm.Null(), nil
			}
			return jsvm.String(h.gl.GetParameter(int(args[0].Num()))), nil
		}), true
	case "getSupportedExtensions":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			exts := h.gl.GetSupportedExtensions()
			out := make([]jsvm.Value, len(exts))
			for i, e := range exts {
				out[i] = jsvm.String(e)
			}
			return jsvm.NewArray(out...), nil
		}), true
	case "clearColor":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) >= 4 {
				h.gl.ClearColor(args[0].Num(), args[1].Num(), args[2].Num(), args[3].Num())
			}
			return jsvm.Undefined(), nil
		}), true
	case "clear":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) > 0 {
				h.gl.Clear(int(args[0].Num()))
			}
			return jsvm.Undefined(), nil
		}), true
	case "createShader", "createProgram", "createBuffer":
		kind := name[len("create"):]
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			return jsvm.Number(float64(h.gl.CreateHandle(kind))), nil
		}), true
	case "bufferData":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			// gl.bufferData(target, data, usage): data is a plain array
			// in this corpus (no typed arrays in the VM).
			if len(args) >= 2 && args[1].IsArray() {
				elems := args[1].Object().Elems
				data := make([]float64, len(elems))
				for i, e := range elems {
					data[i] = e.Num()
				}
				h.gl.BufferData(data)
			}
			return jsvm.Undefined(), nil
		}), true
	case "vertexAttribPointer":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) >= 2 {
				h.gl.SetVertexSize(int(args[1].Num()))
			}
			h.gl.NoopCall("vertexAttribPointer")
			return jsvm.Undefined(), nil
		}), true
	case "drawArrays":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) >= 3 {
				h.gl.DrawArrays(int(args[0].Num()), int(args[1].Num()), int(args[2].Num()))
			}
			return jsvm.Undefined(), nil
		}), true
	}
	if noopMembers[name] {
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			h.gl.NoopCall(name)
			return jsvm.Undefined(), nil
		}), true
	}
	return jsvm.Undefined(), false
}

func (h *webglHost) HostSet(name string, v jsvm.Value) bool { return false }
