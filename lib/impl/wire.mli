open Gcs_core

(** Wire packets of the Section 8 VS implementation: the three-round
    membership protocol of Cristian and Schmuck, plus the ordering token
    and discovery probes. *)

type 'm token_entry = { idx : int; src : Proc.t; msg : 'm }

type 'm token = {
  viewid : View_id.t;
  entries : 'm token_entry list;  (** ascending [idx]; safe prefix pruned *)
  next_idx : int;  (** next index to assign *)
  delivered : int Proc.Map.t;
      (** per member: entries passed to the client when the token last left
          that member *)
  safe_acked : int Proc.Map.t;
      (** per member: safe notifications already issued — gates pruning *)
  appended : int Proc.Map.t;
      (** per member: how many of its client messages have been appended
          in this view (resend suppression) *)
}

type 'm packet =
  | Newgroup of { viewid : View_id.t }
      (** round 1: call for participation (broadcast) *)
  | Accept of { viewid : View_id.t }  (** round 2: reply to the initiator *)
  | Nack of { viewid : View_id.t; proposed_num : int }
      (** refusal carrying the refuser's highest proposal number, so the
          initiator can catch up its identifier counter *)
  | ViewMsg of { view : View.t }  (** round 3: membership announcement *)
  | Token of 'm token
  | Probe of { viewid_num : int }
      (** discovery contact; carries the prober's id counter *)

val fresh_token : View_id.t -> 'm token
val pp_packet : Format.formatter -> 'm packet -> unit

(** {2 Binary framing}

    The one framing under every packet codec in the repository: this
    module's and the Skeen and sequencer backends'. (Client values are
    opaque strings here; [Gcs_apps.Codec] frames them above the wire.) A packet
    is a one-byte constructor tag followed by its fields in order:

    - an int is a zigzag LEB128 varint: the sign folded into bit 0, then
      7 bits a byte, low group first, the high bit set on every byte but
      the last. [-64..63] take one byte, the full [int] range at most
      nine, and every int has exactly one encoding;
    - a string is its length (an int) followed by its bytes, unescaped,
      so arbitrary payload bytes survive;
    - a list is its element count (an int) followed by the elements;
    - a nested record or variant is its own tag and fields, in line.

    Encoders write into one [Buffer]; decoders read through a cursor over
    the received string, copying only the string fields themselves. *)

module Enc : sig
  val tag : Buffer.t -> int -> unit
  (** One byte, [0..255]. *)

  val int : Buffer.t -> int -> unit
  val string : Buffer.t -> string -> unit
  val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

  val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
  (** Encode one value into a fresh buffer. *)
end

module Dec : sig
  type t
  (** A cursor over one received frame. *)

  (** Each reader takes the name of the field it reads first, for the
      error message, and advances the cursor. Outside {!run} they raise a
      private exception on malformed bytes; {!run} turns it into
      [Error]. *)

  val tag : string -> t -> int

  val bad_tag : string -> int -> t -> 'a
  (** Reject the tag just read as unknown. *)

  val int : string -> t -> int
  (** Rejects a truncated varint, a tenth byte (the value overflows 63
      bits) and a zero final byte after the first (overlong). *)

  val string : string -> t -> string

  val list : string -> (t -> 'a) -> t -> 'a list
  (** Every element must encode to at least one byte: a string length or
      list count that is negative or exceeds the bytes left is rejected
      before anything is allocated for it. *)

  val run : string -> (t -> 'a) -> string -> ('a, string) result
  (** [run label f s] decodes all of [s] with [f]. Total: malformed
      bytes, including trailing bytes after a complete value, yield
      [Error], never an exception. The message names [label], the field
      and the byte offset, and never copies the frame, so its length does
      not grow with the input. *)
end

(** {2 Byte codec}

    Serialization for real transports ({!Gcs_transport.Bus} and, later,
    sockets): every packet constructor round-trips through the framing
    above. Tags: [Newgroup] 0, [Accept] 1, [Nack] 2, [ViewMsg] 3,
    [Token] 4, [Probe] 5; inside a token entry a {!Gcs_core.Msg.t} is
    [App] 0, [Batch] 1, [Summary] 2. The simulator moves packets by value
    and never touches this path. *)

val packet_codec :
  enc_msg:(Buffer.t -> 'm -> unit) ->
  dec_msg:(Dec.t -> 'm) ->
  'm packet Gcs_transport.Iface.codec
(** Codec for packets over any payload type, given the payload's framing
    encoder and decoder. *)

val msg_packet_codec : Msg.t packet Gcs_transport.Iface.codec
(** The full VStoTO wire format: packets carrying labelled application
    values and state-exchange summaries ({!Gcs_core.Msg.t}). *)

val string_packet_codec : string packet Gcs_transport.Iface.codec
(** Packets over raw string payloads (tests and simple clients). *)
