package rpcsched

import (
	"bufio"
	"encoding/gob"
	"io"
	"net/rpc"
)

// gobCodec is the standard gob wire format for net/rpc (the frames
// rpc.Dial and rpc.NewClient speak), implemented here so the server can
// wrap it with in-flight tracking.
type gobCodec struct {
	rwc io.ReadWriteCloser
	dec *gob.Decoder
	enc *gob.Encoder
	buf *bufio.Writer
}

func newGobCodec(rwc io.ReadWriteCloser) *gobCodec {
	buf := bufio.NewWriter(rwc)
	return &gobCodec{rwc: rwc, dec: gob.NewDecoder(rwc), enc: gob.NewEncoder(buf), buf: buf}
}

func (c *gobCodec) ReadRequestHeader(r *rpc.Request) error { return c.dec.Decode(r) }
func (c *gobCodec) ReadRequestBody(body any) error         { return c.dec.Decode(body) }

func (c *gobCodec) WriteResponse(r *rpc.Response, body any) error {
	if err := c.enc.Encode(r); err != nil {
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	return c.buf.Flush()
}

func (c *gobCodec) Close() error { return c.rwc.Close() }

// trackedCodec counts a request as in-flight from the moment its header
// is read until its response has been flushed to the connection. That
// window is what a graceful shutdown drains: when the count hits zero,
// every accepted request has had its response handed to the socket, so
// closing the connection cannot cut a reply in half.
type trackedCodec struct {
	rpc.ServerCodec
	pending *Inflight
}

func (c trackedCodec) ReadRequestHeader(r *rpc.Request) error {
	if err := c.ServerCodec.ReadRequestHeader(r); err != nil {
		return err
	}
	// net/rpc answers every request whose header was read — even a
	// body-decode failure gets an error response — so each add here is
	// balanced by the WriteResponse below.
	c.pending.Add()
	return nil
}

func (c trackedCodec) WriteResponse(r *rpc.Response, body any) error {
	defer c.pending.Done()
	return c.ServerCodec.WriteResponse(r, body)
}
