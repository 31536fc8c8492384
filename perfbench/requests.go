package main

import (
	"bytes"
	"encoding/json"
	"net/http"

	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/stream"
)

// postFrame sends a sample's TCF1 frame to /v1/eval and checks the
// reply bits against the sample's direct evaluation.
func postFrame(c *call, sm *load.Sample) error {
	c.kind = "eval"
	body, err := c.do(http.MethodPost, "/v1/eval", serve.FrameContentType, sm.Frame)
	if err != nil {
		return err
	}
	out, err := serve.DecodeFrameResponse(body)
	if err != nil {
		return wrongf("/v1/eval: %v", err)
	}
	if !sm.BitsEqual(out) {
		return wrongf("/v1/eval: output bits differ from direct evaluation")
	}
	return nil
}

// postJSON sends a sample's JSON body to its shape's endpoint and
// checks the answer field against the sample's ground truth.
func postJSON(c *call, p *load.Pool, sm *load.Sample) error {
	c.kind = "json"
	body, err := c.do(http.MethodPost, p.Path, "application/json", sm.JSONBody)
	if err != nil {
		return err
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(body, &got); err != nil {
		return wrongf("%s: %v", p.Path, err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, got[p.RespKey]); err != nil {
		return wrongf("%s: %v", p.Path, err)
	}
	if buf.String() != sm.WantJSON {
		return wrongf("%s: %s = %s, want %s", p.Path, p.RespKey, buf.String(), sm.WantJSON)
	}
	return nil
}

// postGraph sends one TCG1 frame to /v1/graph and decodes the reply.
func postGraph(c *call, req stream.GraphRequest) (stream.GraphResponse, error) {
	c.kind = req.Op.String()
	if req.Op == stream.OpUpdate && req.Screen {
		c.kind = "update+screen"
	}
	frame, err := stream.EncodeGraphRequest(req)
	if err != nil {
		return stream.GraphResponse{}, err
	}
	body, err := c.do(http.MethodPost, "/v1/graph", serve.FrameContentType, frame)
	if err != nil {
		return stream.GraphResponse{}, err
	}
	resp, err := stream.DecodeGraphResponse(body)
	if err != nil {
		return resp, wrongf("/v1/graph: %v", err)
	}
	return resp, nil
}
