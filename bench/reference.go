package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
)

// A shared host's speed drifts: on the 2-core Intel Xeon VM the bounds
// were calibrated on, the same study pass took anywhere from 11.3 s to
// 21.6 s within an hour as neighbours came and went. So a run also
// times a fixed reference kernel, standard library only, in fresh
// processes before its first pass and after each pass, and divides its
// end-to-end times by how much slower than nominal the kernel ran. Over
// ten runs of each workload on that host, the kernel's time correlated
// with the raw result at r = 0.94 (study), 0.97 (study-resume) and 0.99
// (serve), and the correction cut the spread of the latencies and
// throughputs (IQR over median) from 0.32-0.54 to 0.07-0.14. The raw
// values are printed and recorded beside the corrected ones.
//
// refNominalS is the kernel's median duration over those runs, so
// corrected times read as seconds on that host in its typical state.
const refNominalS = 0.46

// referenceKernel is the fixed work the reference child times: the
// crawl-shaped work on as many goroutines as the crawl has workers, then
// request round trips on as many loopback connections as serve uses.
func referenceKernel() error {
	out := make([]any, workers)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = referenceWork(int64(w))
		}()
	}
	wg.Wait()
	refSink = out
	for c := 0; c < conns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = referenceRoundTrips(1500)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// referenceRoundTrips bounces small messages off an echo server over a
// loopback TCP connection.
func referenceRoundTrips(rounds int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			_, err = io.Copy(c, c)
			c.Close()
		}
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	msg, buf := make([]byte, 512), make([]byte, 512)
	for i := 0; i < rounds && err == nil; i++ {
		if _, err = c.Write(msg); err == nil {
			_, err = io.ReadFull(c, buf)
		}
	}
	c.Close()
	return errors.Join(err, <-echoed)
}

// refSink keeps the kernel's results alive so none of its work is
// optimized away.
var refSink any

// referenceWork does, in miniature, what a crawl does: an interpreter's
// string-keyed lookups over a pointer-linked tree with short-lived
// scope maps, a rasterizer's sorted edges and pixel writes, and an
// image encoder's deflate.
func referenceWork(seed int64) any {
	r := rand.New(rand.NewSource(seed))

	type node struct {
		key         string
		left, right *node
	}
	keys := make([]string, 512)
	globals := map[string]float64{}
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(r.Intn(1<<20))
		globals[keys[i]] = float64(i)
	}
	var root *node
	for i := 0; i < 20_000; i++ {
		n := &node{key: keys[r.Intn(len(keys))]}
		at := &root
		for *at != nil {
			if r.Intn(2) == 0 {
				at = &(*at).left
			} else {
				at = &(*at).right
			}
		}
		*at = n
	}
	acc := 0.0
	var walk func(n *node, scope map[string]float64, depth int)
	walk = func(n *node, scope map[string]float64, depth int) {
		if n == nil {
			return
		}
		if depth%4 == 0 {
			scope = map[string]float64{n.key: acc}
		}
		if v, ok := scope[n.key]; ok {
			acc += v
		} else {
			acc += globals[n.key]
		}
		walk(n.left, scope, depth+1)
		walk(n.right, scope, depth+1)
	}
	for i := 0; i < 90; i++ {
		walk(root, nil, 0)
	}

	type edge struct{ y0, y1, x, dx float64 }
	const w, h = 300, 150
	pix := make([]byte, w*h*4)
	for i := 0; i < 2200; i++ {
		edges := make([]edge, 0, 24)
		for e := 0; e < 24; e++ {
			y0, y1 := r.Float64()*h, r.Float64()*h
			edges = append(edges, edge{min(y0, y1), max(y0, y1), r.Float64() * w, r.Float64()*2 - 1})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].y0 < edges[b].y0 })
		for _, e := range edges {
			for y := int(e.y0); y < int(e.y1); y++ {
				x := int(e.x+e.dx*float64(y)) % w
				if x < 0 {
					x += w
				}
				o := (y*w + x) * 4
				pix[o] = byte(float64(pix[o])*0.5 + 127)
				pix[o+3] = 255
			}
		}
	}

	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	for i := 0; i < 24; i++ {
		zw.Write(pix)
	}
	zw.Close()
	sum := sha256.Sum256(buf.Bytes())
	return []any{acc, sum}
}
