// Package client is a fixture stub of the freshcache/internal/client
// functions the analyzers match: DecodeMGet and DecodeGet, whose results
// alias the response they decode.
package client

import "freshcache/internal/proto"

func DecodeMGet(resp *proto.Msg, keys []string) ([]proto.BatchOp, error) {
	return resp.Ops, nil
}

func DecodeGet(resp *proto.Msg, key string) ([]byte, uint64, error) {
	return resp.Value, resp.Version, nil
}
