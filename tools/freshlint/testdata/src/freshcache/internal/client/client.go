// Package client is a fixture stub of the freshcache/internal/client
// names the analyzers match: DecodeMGet and DecodeGet, whose results
// alias the response they decode, and the asynchronous verbs — a Client's
// and a Sharded's — which borrow the request bytes they are handed until
// they return.
package client

import "freshcache/internal/proto"

type Completion interface {
	Complete(resp *proto.Msg, err error)
}

type Client struct{}

func (c *Client) PutAsync(key string, value []byte, traceID uint64, done Completion) {}

func (c *Client) MPutAsync(ops []proto.BatchOp, traceID uint64, done Completion) {}

func (c *Client) RestoreAsync(ops []proto.BatchOp, freqs []proto.KeyFreq, fence, traceID uint64, done Completion) {
}

// Scatter is the record a scattered request embeds; Scattered is that
// request.
type Scatter struct{}

func (sc *Scatter) scatter() *Scatter { return sc }

type Scattered interface {
	Finish()
	scatter() *Scatter
}

type Sharded struct{}

func (s *Sharded) MGetAsync(keys []string, traceID uint64, q Scattered) {}

func (s *Sharded) MPutAsync(ops []proto.BatchOp, traceID uint64, q Scattered) {}

func DecodeMGet(resp *proto.Msg, keys []string) ([]proto.BatchOp, error) {
	return resp.Ops, nil
}

func DecodeGet(resp *proto.Msg, key string) ([]byte, uint64, error) {
	return resp.Value, resp.Version, nil
}
