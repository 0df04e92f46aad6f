// Package broker is the networked pub/sub substrate: a TCP server that
// fronts an apcm.Engine with subscribe/unsubscribe/publish operations
// and pushes match notifications to subscriber connections, plus the
// matching client library. It realises the paper's motivating
// application — selective information dissemination — end to end.
//
// Wire format: length-prefixed frames (uint32 big-endian length, then
// payload, at most MaxFrame bytes). The first payload byte is the
// message type:
//
//	'V' hello        both ways      one version byte (see below)
//	'S' subscribe    client→server  expression (client-scoped id)
//	'U' unsubscribe  client→server  uvarint id
//	'P' publish      client→server  event
//	'H' ping         client→server  empty (keepalive probe)
//	'h' pong         server→client  empty (keepalive answer)
//	'A' ack          server→client  uvarint id (subscribe/unsubscribe ok)
//	'E' error        server→client  uvarint id, utf-8 message
//	'M' match        server→client  uvarint n, n×uvarint ids, event
//
// Version 2 adds durable delivery (requires the server to run with a
// commit log; see Server.LogDir):
//
//	'R' resume       client→server  uvarint id, uvarint from, consumer name
//	'O' resume-ok    server→client  uvarint id, uvarint start offset
//	'D' durable      server→client  uvarint offset, uvarint n, n×uvarint ids, event
//	'K' offset-ack   client→server  uvarint offset
//
// A connection opens with a version handshake: the client's first frame
// must be a hello carrying the highest version it speaks, and the
// server answers with a hello carrying the negotiated version —
// min(client, ProtocolVersion) — before any other frame. A first frame
// that is not a hello, or a version below MinProtocolVersion,
// terminates the connection (after a best-effort 'E' frame naming the
// mismatch), so incompatible peers fail fast instead of desynchronizing
// mid-stream.
//
// Durable delivery: a 'R' resume names a consumer identity and the
// offset the client wants to read from; the server clamps it to what it
// knows (persisted consumer progress, log retention), answers 'O' with
// the effective start offset, replays every logged record for that
// consumer from there as 'D' frames, and streams subsequent matches as
// 'D' frames carrying their log offsets. 'K' acknowledges delivery
// through an offset (cumulative); the server logs it in its commit log
// so a later resume starts after the last acknowledged record.
// Delivery is at-least-once: a crash between delivery and ack
// redelivers.
//
// Version 3 added leader→follower replication (requires both sides to
// run with a commit log; see Server.Follow); version 4 moved consumer
// offsets into the replicated log:
//
//	'F' repl-hello   follower→leader  uvarint epoch, uvarint next offset, uvarint acks, node id
//	'f' repl-welcome leader→follower  uvarint epoch, uvarint leader next, uvarint start offset
//	'G' segment      leader→follower  uvarint flags (1=final), segment bytes chunk
//	'g' segment-end  leader→follower  uvarint base, uvarint end, uvarint crc32
//	'b' repl-batch   leader→follower  uvarint flags (1=final), raw batch bytes chunk
//	'B' repl-ack     follower→leader  uvarint replicated next offset
//	'X' fence        either way       uvarint epoch
//
// A replication connection is an ordinary client connection until the
// follower's 'F' handshake: it carries the follower's persisted epoch
// and its log's tail (next offset, offsets batches held at it). The
// leader answers 'f' with its epoch and the effective start offset (the
// request clamped forward past retention), then streams history —
// whole sealed segments as 'G' chunks finalized by a CRC-carrying 'g'
// when the follower's position aligns with a segment's start, raw
// commit-log batches, consumer offsets batches included, as 'b' chunks
// otherwise — and parks on the committed tail for live streaming. The
// follower acknowledges ingest progress with 'B' (which drives the
// leader's replicated watermark, its retention clamp, and -repl-sync
// delivery gating) and pings with 'H' so the leader's ordinary
// heartbeat reaper detects a dead follower.
//
// Epochs fence stale leaders: both sides persist a monotone epoch, a
// follower that loses leader liveness promotes by durably bumping its
// epoch and sending 'X' on the dying connection, and any node that
// hears an epoch above its own fences itself — it rejects client
// operations and replication frames until an operator restarts it in a
// valid role. Old-epoch peers are answered with 'X' carrying the newer
// epoch.
//
// Liveness is client-driven: clients send 'H' pings on an interval and
// the server answers 'h'. The server reads under a deadline sized to
// several missed heartbeats and reaps connections that stay silent;
// clients fail the connection when nothing (pong or any other frame)
// arrives within their pong timeout. See Server.HeartbeatInterval and
// ClientOptions.
//
// Subscribe and unsubscribe are acknowledged (one outstanding request
// per connection); publish is fire-and-forget.
package broker

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds frame payloads; larger frames indicate corruption or
// abuse and terminate the connection.
const MaxFrame = 1 << 20

// ProtocolVersion is the highest wire-protocol revision this build
// speaks, carried in the hello handshake. Version 1 introduced the
// handshake itself and the ping/pong keepalive frames; version 2 adds
// durable delivery (resume, durable-match and offset-ack frames);
// version 3 adds commit-log replication with epoch fencing; version 4
// moves consumer offsets into the replicated log (a version-3 follower
// would reject its offsets batches as corrupt).
const ProtocolVersion = 4

// MinProtocolVersion is the oldest revision the server still accepts;
// clients announcing anything in [MinProtocolVersion, ∞) negotiate
// down to min(theirs, ProtocolVersion). It equals ProtocolVersion: every
// connection speaks the full frame set, so no frame is gated by version.
const MinProtocolVersion = 4

// Message type bytes.
const (
	msgHello       = 'V'
	msgSubscribe   = 'S'
	msgUnsubscribe = 'U'
	msgPublish     = 'P'
	msgPing        = 'H'
	msgPong        = 'h'
	msgAck         = 'A'
	msgErr         = 'E'
	msgMatch       = 'M'
	msgResume      = 'R'
	msgResumeOK    = 'O'
	msgDurable     = 'D'
	msgOffsetAck   = 'K'
	msgReplHello   = 'F'
	msgReplWelcome = 'f'
	msgReplSegment = 'G'
	msgReplSegEnd  = 'g'
	msgReplBatch   = 'b'
	msgReplAck     = 'B'
	msgFence       = 'X'
)

// chunkFinal flags the last chunk of a 'G' segment or 'b' batch
// transfer; replChunk is the chunk size, comfortably under MaxFrame so
// transfers of any commit-log batch (whose size the leader's FlushBytes
// config bounds, not MaxFrame) always fit the wire format.
const (
	chunkFinal = 1
	replChunk  = 256 << 10
)

// helloFrame is the two-byte hello payload both sides send.
func helloFrame() []byte { return []byte{msgHello, ProtocolVersion} }

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("broker: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf (reallocating as needed) and
// returns the payload.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 {
		return nil, fmt.Errorf("broker: empty frame")
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("broker: frame of %d bytes exceeds limit", size)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("broker: truncated frame: %w", err)
	}
	return buf, nil
}

// appendUvarint appends v to dst. Per-frame codec: every delivered
// match, durable frame and logged record goes through it.
//
//apcm:hotpath
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// frameRoom is the spare room handlePublish leaves in front of a
// delivery tail for the frame header: the message type and, on a
// durable frame, the uvarint log offset.
const frameRoom = 1 + binary.MaxVarintLen64

// framed writes typ and hdr into buf's spare room, right in front of
// the tail at buf[frameRoom:], and returns the frame — one buffer per
// delivery, not one per frame.
func framed(buf []byte, typ byte, hdr []byte) []byte {
	start := frameRoom - 1 - len(hdr)
	buf[start] = typ
	copy(buf[start+1:], hdr)
	return buf[start:]
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("broker: truncated varint")
	}
	return v, b[n:], nil
}
