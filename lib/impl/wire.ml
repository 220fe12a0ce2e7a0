open Gcs_core

type 'm token_entry = { idx : int; src : Proc.t; msg : 'm }

type 'm token = {
  viewid : View_id.t;
  entries : 'm token_entry list;
  next_idx : int;
  delivered : int Proc.Map.t;
  safe_acked : int Proc.Map.t;
  appended : int Proc.Map.t;
}

type 'm packet =
  | Newgroup of { viewid : View_id.t }
  | Accept of { viewid : View_id.t }
  | Nack of { viewid : View_id.t; proposed_num : int }
  | ViewMsg of { view : View.t }
  | Token of 'm token
  | Probe of { viewid_num : int }

let fresh_token viewid =
  {
    viewid;
    entries = [];
    next_idx = 1;
    delivered = Proc.Map.empty;
    safe_acked = Proc.Map.empty;
    appended = Proc.Map.empty;
  }

(* ---- Byte codec -------------------------------------------------------

   One flat binary framing, shared with the Skeen and sequencer wire
   formats: a packet is a constructor tag byte followed by its fields in
   order. Ints are zigzag LEB128 varints (7 bits a byte, low group first,
   high bit = more follows), so small ints of either sign take one byte
   and [min_int]..[max_int] at most nine. Strings and lists are a count
   (an int) followed by their bytes or elements. Nothing is escaped and a
   nested record is just its fields in line, so an encoder writes one
   [Buffer] and a decoder walks one cursor over the received string. *)

module Enc = struct
  (* [u] is the zigzag image, read as unsigned: [lsr] never sign-fills. *)
  let rec uvarint b u =
    if u lsr 7 = 0 then Buffer.add_uint8 b u
    else begin
      Buffer.add_uint8 b ((u land 0x7f) lor 0x80);
      uvarint b (u lsr 7)
    end

  let tag b t = Buffer.add_uint8 b t
  let int b n = uvarint b ((n lsl 1) lxor (n asr 62))

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let list f b xs =
    int b (List.length xs);
    List.iter (f b) xs

  let to_string f x =
    let b = Buffer.create 64 in
    f b x;
    Buffer.contents b
end

module Dec = struct
  type t = { src : string; mutable pos : int }

  exception Malformed of { field : string; at : int; why : string }

  let fail field at why = raise (Malformed { field; at; why })

  let tag field d =
    let pos = d.pos in
    if pos >= String.length d.src then fail field pos "missing tag"
    else begin
      d.pos <- pos + 1;
      Char.code d.src.[pos]
    end

  let bad_tag field t d =
    fail field (d.pos - 1) (Printf.sprintf "unknown tag %d" t)

  (* The ninth byte carries bits 56..62, the last of a 63-bit int, so a
     ninth byte that announces a tenth overflows. A zero final byte after
     the first adds no bits: rejecting it keeps every int to exactly one
     encoding. *)
  let rec uvarint field d start pos shift acc =
    if pos >= String.length d.src then fail field start "truncated varint"
    else
      let byte = Char.code d.src.[pos] in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte < 0x80 then
        if byte = 0 && shift > 0 then fail field start "overlong varint"
        else begin
          d.pos <- pos + 1;
          acc
        end
      else if shift >= 56 then fail field start "varint overflows 63 bits"
      else uvarint field d start (pos + 1) (shift + 7) acc

  let int field d =
    let u = uvarint field d d.pos d.pos 0 0 in
    (u lsr 1) lxor (-(u land 1))

  (* Every element and byte takes at least one byte, so a count beyond
     the bytes left is malformed — checked before anything is built. *)
  let count field d =
    let at = d.pos in
    let n = int field d in
    let left = String.length d.src - d.pos in
    if n < 0 then fail field at (Printf.sprintf "negative length %d" n)
    else if n > left then
      fail field at (Printf.sprintf "length %d exceeds the %d bytes left" n left)
    else n

  let string field d =
    let n = count field d in
    let v = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    v

  let list field f d =
    let rec go acc k = if k = 0 then List.rev acc else go (f d :: acc) (k - 1) in
    go [] (count field d)

  let run label f s =
    let d = { src = s; pos = 0 } in
    match f d with
    | x when d.pos = String.length s -> Ok x
    | _ ->
        Error
          (Printf.sprintf "%s: %d trailing bytes at byte %d" label
             (String.length s - d.pos) d.pos)
    | exception Malformed { field; at; why } ->
        Error (Printf.sprintf "%s: %s at byte %d: %s" label field at why)
end

let enc_viewid b (v : View_id.t) =
  Enc.int b v.num;
  Enc.int b v.origin

let dec_viewid d =
  let num = Dec.int "viewid.num" d in
  let origin = Dec.int "viewid.origin" d in
  View_id.make ~num ~origin

let enc_label b (l : Label.t) =
  enc_viewid b l.id;
  Enc.int b l.seqno;
  Enc.int b l.origin

let enc_entry b (l, v) =
  enc_label b l;
  Enc.string b v

let dec_label d =
  let id = dec_viewid d in
  let seqno = Dec.int "label.seqno" d in
  let origin = Dec.int "label.origin" d in
  Label.make ~id ~seqno ~origin

let dec_entry d =
  let l = dec_label d in
  (l, Dec.string "entry.value" d)

let enc_summary b (x : Summary.t) =
  Enc.list enc_entry b (Label.Map.bindings x.con);
  Enc.list enc_label b x.ord;
  Enc.int b x.next;
  match x.high with
  | None -> Enc.tag b 0
  | Some v ->
      Enc.tag b 1;
      enc_viewid b v

let dec_summary d =
  let con = Dec.list "summary.con" dec_entry d in
  let ord = Dec.list "summary.ord" dec_label d in
  let next = Dec.int "summary.next" d in
  let high =
    match Dec.tag "summary.high" d with
    | 0 -> None
    | 1 -> Some (dec_viewid d)
    | t -> Dec.bad_tag "summary.high" t d
  in
  Summary.make
    ~con:(List.fold_left (fun m (l, v) -> Label.Map.add l v m) Label.Map.empty con)
    ~ord ~next ~high

let enc_msg b = function
  | Msg.App (l, v) ->
      Enc.tag b 0;
      enc_entry b (l, v)
  | Msg.Batch entries ->
      Enc.tag b 1;
      Enc.list enc_entry b entries
  | Msg.Summary x ->
      Enc.tag b 2;
      enc_summary b x

let dec_msg d =
  match Dec.tag "msg" d with
  | 0 ->
      let l, v = dec_entry d in
      Msg.App (l, v)
  | 1 -> Msg.Batch (Dec.list "batch" dec_entry d)
  | 2 -> Msg.Summary (dec_summary d)
  | t -> Dec.bad_tag "msg" t d

let enc_proc_counts b m =
  Enc.list
    (fun b (p, c) ->
      Enc.int b p;
      Enc.int b c)
    b (Proc.Map.bindings m)

let dec_proc_counts field d =
  List.fold_left
    (fun m (p, c) -> Proc.Map.add p c m)
    Proc.Map.empty
    (Dec.list field
       (fun d ->
         let p = Dec.int field d in
         (p, Dec.int field d))
       d)

let encode_packet enc_m b = function
  | Newgroup { viewid } ->
      Enc.tag b 0;
      enc_viewid b viewid
  | Accept { viewid } ->
      Enc.tag b 1;
      enc_viewid b viewid
  | Nack { viewid; proposed_num } ->
      Enc.tag b 2;
      enc_viewid b viewid;
      Enc.int b proposed_num
  | ViewMsg { view } ->
      Enc.tag b 3;
      enc_viewid b view.id;
      Enc.list Enc.int b (Proc.Set.elements view.set)
  | Token t ->
      Enc.tag b 4;
      enc_viewid b t.viewid;
      Enc.list
        (fun b e ->
          Enc.int b e.idx;
          Enc.int b e.src;
          enc_m b e.msg)
        b t.entries;
      Enc.int b t.next_idx;
      enc_proc_counts b t.delivered;
      enc_proc_counts b t.safe_acked;
      enc_proc_counts b t.appended
  | Probe { viewid_num } ->
      Enc.tag b 5;
      Enc.int b viewid_num

let decode_packet dec_m d =
  match Dec.tag "packet" d with
  | 0 -> Newgroup { viewid = dec_viewid d }
  | 1 -> Accept { viewid = dec_viewid d }
  | 2 ->
      let viewid = dec_viewid d in
      Nack { viewid; proposed_num = Dec.int "nack.proposed_num" d }
  | 3 ->
      let id = dec_viewid d in
      let members = Dec.list "view.set" (Dec.int "view member") d in
      ViewMsg { view = View.make id members }
  | 4 ->
      let viewid = dec_viewid d in
      let entries =
        Dec.list "token.entries"
          (fun d ->
            let idx = Dec.int "token entry.idx" d in
            let src = Dec.int "token entry.src" d in
            { idx; src; msg = dec_m d })
          d
      in
      let next_idx = Dec.int "token.next_idx" d in
      let delivered = dec_proc_counts "token.delivered" d in
      let safe_acked = dec_proc_counts "token.safe_acked" d in
      let appended = dec_proc_counts "token.appended" d in
      Token { viewid; entries; next_idx; delivered; safe_acked; appended }
  | 5 -> Probe { viewid_num = Dec.int "probe.viewid_num" d }
  | t -> Dec.bad_tag "packet" t d

let packet_codec ~enc_msg ~dec_msg : _ Gcs_transport.Iface.codec =
  {
    enc = Enc.to_string (encode_packet enc_msg);
    dec = Dec.run "wire packet" (decode_packet dec_msg);
  }

let msg_packet_codec : Msg.t packet Gcs_transport.Iface.codec =
  packet_codec ~enc_msg ~dec_msg

let string_packet_codec : string packet Gcs_transport.Iface.codec =
  packet_codec ~enc_msg:Enc.string ~dec_msg:(Dec.string "payload")

let pp_packet ppf = function
  | Newgroup { viewid } -> Format.fprintf ppf "newgroup(%a)" View_id.pp viewid
  | Accept { viewid } -> Format.fprintf ppf "accept(%a)" View_id.pp viewid
  | Nack { viewid; proposed_num } ->
      Format.fprintf ppf "nack(%a,%d)" View_id.pp viewid proposed_num
  | ViewMsg { view } -> Format.fprintf ppf "viewmsg(%a)" View.pp view
  | Token t ->
      Format.fprintf ppf "token(%a,#%d,|%d|)" View_id.pp t.viewid t.next_idx
        (List.length t.entries)
  | Probe { viewid_num } -> Format.fprintf ppf "probe(%d)" viewid_num
