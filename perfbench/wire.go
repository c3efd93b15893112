package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/server"
)

// wireCapture is an http.RoundTripper that, while armed, keeps the body
// of every 200 answer from /v1/plan/stream as the client reads it, keyed
// by the shard's base URL. server.Client sends through
// http.DefaultTransport, which the traced run replaces with it; it is
// armed only around the replay's streams, so the untraced passes run
// through the plain transport.
type wireCapture struct {
	inner  http.RoundTripper
	mu     sync.Mutex
	armed  bool
	bodies map[string]*bytes.Buffer
}

func installWireCapture() *wireCapture {
	w := &wireCapture{inner: http.DefaultTransport}
	http.DefaultTransport = w
	return w
}

func (w *wireCapture) uninstall() { http.DefaultTransport = w.inner }

func (w *wireCapture) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := w.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || req.URL.Path != "/v1/plan/stream" {
		return resp, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.armed {
		buf := &bytes.Buffer{}
		w.bodies[req.URL.Scheme+"://"+req.URL.Host] = buf
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(resp.Body, buf), resp.Body}
	}
	return resp, nil
}

// arm starts capturing a new set of streams.
func (w *wireCapture) arm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed, w.bodies = true, map[string]*bytes.Buffer{}
}

// take stops capturing and returns the bodies read since arm.
func (w *wireCapture) take() map[string][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string][]byte, len(w.bodies))
	for url, b := range w.bodies {
		out[url] = b.Bytes()
	}
	w.armed, w.bodies = false, nil
	return out
}

// siteWire is what one fragment site put on the wire: the fragment sent
// to every shard, and each shard's stream body with the partial's rows.
type siteWire struct {
	plan    []byte
	streams [][]byte
	rows    []int
}

// wireProbe times, outside the traced query, what the wire costs the
// shards and the coordinator for the sites of one query: a shard's
// decode of the fragment (UnmarshalPlan); the client's decode of every
// chunk frame that arrived, done the way PlanStreamEncoded and its
// callback do it (frame json.Unmarshal with the base64 body,
// UnmarshalTableBin, DecodeTable); and a shard's encode of the same
// chunk (EncodeTable, MarshalTableBin, frame json.Marshal). On the first
// traced pass it counts the stream bytes that arrived, every frame but
// the trailer, whose timing stats differ from run to run.
func (t *traceRun) wireProbe(sites []siteWire, id, root, q int, first bool) error {
	tr := t.tr
	for _, sw := range sites {
		var err error
		tr.do(id, root, "dist", "plan.wire_decode", q, func() { _, err = plan.UnmarshalPlan(sw.plan, t.e.db.TableByName) })
		if err != nil {
			return err
		}
		for shi, body := range sw.streams {
			rows := 0
			for _, line := range bytes.SplitAfter(body, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var f server.StreamFrame
				if err := json.Unmarshal(line, &f); err != nil {
					return fmt.Errorf("captured stream: %w", err)
				}
				if f.Frame != server.FrameTrailer && first {
					t.wireBytes += len(line)
				}
				if f.Frame != server.FrameChunk {
					continue
				}
				var tab *engine.Table
				tr.do(id, root, "dist", "server.table_decode", q, func() { tab, err = decodeChunk(line) })
				if err != nil {
					return err
				}
				tr.do(id, root, "dist", "server.table_encode", q, func() { err = encodeChunk(tab) })
				if err != nil {
					return err
				}
				rows += tab.Rows()
			}
			if rows != sw.rows[shi] {
				return fmt.Errorf("captured stream of shard %d holds %d rows, the client read %d", shi, rows, sw.rows[shi])
			}
			if first {
				t.wireRows += rows
			}
		}
	}
	return nil
}

func decodeChunk(line []byte) (*engine.Table, error) {
	var f server.StreamFrame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, err
	}
	tj := f.Table
	if len(f.Bin) > 0 {
		var err error
		if tj, err = server.UnmarshalTableBin(f.Bin); err != nil {
			return nil, err
		}
	}
	if tj == nil {
		return nil, errors.New("captured stream: chunk frame without table")
	}
	return server.DecodeTable(tj)
}

func encodeChunk(tab *engine.Table) error {
	data, err := server.MarshalTableBin(server.EncodeTable(tab))
	if err == nil {
		_, err = json.Marshal(server.StreamFrame{Frame: server.FrameChunk, Bin: data})
	}
	return err
}
