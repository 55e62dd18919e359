// Package client is a fixture stub of the one freshcache/internal/client
// function the analyzers match: DecodeMGet, whose result aliases the
// response it decodes.
package client

import "freshcache/internal/proto"

func DecodeMGet(resp *proto.Msg, keys []string) ([]proto.BatchOp, error) {
	return resp.Ops, nil
}
