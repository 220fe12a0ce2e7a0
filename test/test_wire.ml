(* Wire codec round-trip tests.

   Every packet constructor of the Section 8 protocol must survive
   encode/decode byte-for-byte over arbitrary payload bytes — including
   '|' and '%', empty strings, empty views, empty token maps, ints at the
   ends of their range and pathologically long values — and decoding
   arbitrary, truncated or hostile bytes must return a short [Error],
   never raise or allocate for what the frame claims. *)

open Gcs_core
module Wire = Gcs_impl.Wire

let enc p = Wire.msg_packet_codec.Gcs_transport.Iface.enc p
let dec s = Wire.msg_packet_codec.Gcs_transport.Iface.dec s

(* ----------------------------- equality ----------------------------- *)

let equal_entry eq_msg (a : 'm Wire.token_entry) (b : 'm Wire.token_entry) =
  a.Wire.idx = b.Wire.idx && a.Wire.src = b.Wire.src && eq_msg a.Wire.msg b.Wire.msg

let equal_token eq_msg (a : 'm Wire.token) (b : 'm Wire.token) =
  View_id.equal a.Wire.viewid b.Wire.viewid
  && List.equal (equal_entry eq_msg) a.Wire.entries b.Wire.entries
  && a.Wire.next_idx = b.Wire.next_idx
  && Proc.Map.equal Int.equal a.Wire.delivered b.Wire.delivered
  && Proc.Map.equal Int.equal a.Wire.safe_acked b.Wire.safe_acked
  && Proc.Map.equal Int.equal a.Wire.appended b.Wire.appended

let equal_packet eq_msg (a : 'm Wire.packet) (b : 'm Wire.packet) =
  match (a, b) with
  | Wire.Newgroup a, Wire.Newgroup b -> View_id.equal a.viewid b.viewid
  | Wire.Accept a, Wire.Accept b -> View_id.equal a.viewid b.viewid
  | Wire.Nack a, Wire.Nack b ->
      View_id.equal a.viewid b.viewid && a.proposed_num = b.proposed_num
  | Wire.ViewMsg a, Wire.ViewMsg b -> View.equal a.view b.view
  | Wire.Token a, Wire.Token b -> equal_token eq_msg a b
  | Wire.Probe a, Wire.Probe b -> a.viewid_num = b.viewid_num
  | _ -> false

(* ---------------------------- generators ---------------------------- *)

open QCheck

let gen_proc = Gen.int_range 0 5
let gen_viewid =
  Gen.map2 (fun num origin -> View_id.make ~num ~origin) (Gen.int_range 0 999) gen_proc

let gen_label =
  Gen.map3
    (fun id seqno origin -> Label.make ~id ~seqno ~origin)
    gen_viewid (Gen.int_range 1 99) gen_proc

(* Full byte range: no byte value may be special to the framing. *)
let gen_value = Gen.(string_size ~gen:char (int_range 0 30))

let gen_summary =
  let open Gen in
  let* bindings = list_size (int_range 0 4) (pair gen_label gen_value) in
  let* ord = list_size (int_range 0 5) gen_label in
  let* next = int_range 1 50 in
  let* high = opt gen_viewid in
  let con =
    List.fold_left (fun m (l, v) -> Label.Map.add l v m) Label.Map.empty bindings
  in
  return (Summary.make ~con ~ord ~next ~high)

let gen_msg =
  Gen.oneof
    [
      Gen.map2 (fun l v -> Msg.App (l, v)) gen_label gen_value;
      Gen.map
        (fun entries -> Msg.Batch entries)
        Gen.(list_size (int_range 0 6) (pair gen_label gen_value));
      Gen.map (fun s -> Msg.Summary s) gen_summary;
    ]

let gen_proc_counts =
  Gen.map
    (List.fold_left (fun m (p, k) -> Proc.Map.add p k m) Proc.Map.empty)
    Gen.(list_size (int_range 0 4) (pair gen_proc (int_range 0 100)))

let gen_token =
  let open Gen in
  let* viewid = gen_viewid in
  let* base = int_range 0 20 in
  let* payloads = list_size (int_range 0 5) (pair gen_proc gen_msg) in
  let* delivered = gen_proc_counts in
  let* safe_acked = gen_proc_counts in
  let* appended = gen_proc_counts in
  let entries =
    List.mapi (fun i (src, msg) -> { Wire.idx = base + i; src; msg }) payloads
  in
  return
    {
      Wire.viewid;
      entries;
      next_idx = base + List.length entries;
      delivered;
      safe_acked;
      appended;
    }

let gen_view =
  Gen.map2
    (fun id members -> View.make id (List.sort_uniq Int.compare members))
    gen_viewid
    Gen.(list_size (int_range 0 5) gen_proc)

let gen_packet =
  Gen.oneof
    [
      Gen.map (fun viewid -> Wire.Newgroup { viewid }) gen_viewid;
      Gen.map (fun viewid -> Wire.Accept { viewid }) gen_viewid;
      Gen.map2
        (fun viewid proposed_num -> Wire.Nack { viewid; proposed_num })
        gen_viewid (Gen.int_range 0 999);
      Gen.map (fun view -> Wire.ViewMsg { view }) gen_view;
      Gen.map (fun t -> Wire.Token t) gen_token;
      Gen.map (fun viewid_num -> Wire.Probe { viewid_num }) (Gen.int_range 0 999);
    ]

let arb_packet =
  make ~print:(fun p -> Format.asprintf "%a" Wire.pp_packet p) gen_packet

(* ---------------------------- properties ---------------------------- *)

let prop_roundtrip =
  Test.make ~name:"msg packet enc/dec roundtrip" ~count:1000 arb_packet (fun p ->
      match dec (enc p) with
      | Ok p' -> equal_packet Msg.equal p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let prop_string_roundtrip =
  let arb =
    make
      ~print:(fun v -> String.escaped v)
      Gen.(string_size ~gen:char (int_range 0 200))
  in
  Test.make ~name:"string payload roundtrip (arbitrary bytes)" ~count:500 arb
    (fun v ->
      let p = Wire.Token { (Wire.fresh_token View_id.g0) with
                           Wire.entries = [ { Wire.idx = 0; src = 1; msg = v } ];
                           next_idx = 1 } in
      let c = Wire.string_packet_codec in
      match c.Gcs_transport.Iface.dec (c.Gcs_transport.Iface.enc p) with
      | Ok p' -> equal_packet String.equal p p'
      | Error e -> Test.fail_reportf "decode failed: %s" e)

let prop_garbage_total =
  let arb = make ~print:String.escaped Gen.(string_size ~gen:char (int_range 0 60)) in
  Test.make ~name:"decode is total on arbitrary bytes" ~count:1000 arb (fun s ->
      match dec s with Ok _ | Error _ -> true)

let prop_truncation_total =
  Test.make ~name:"decode is total on truncated encodings" ~count:500
    (pair arb_packet (float_bound_inclusive 1.0)) (fun (p, frac) ->
      let s = enc p in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      let s = String.sub s 0 (min cut (String.length s)) in
      match dec s with Ok _ | Error _ -> true)

(* ---------------------------- unit cases ---------------------------- *)

let check_roundtrip name p =
  match dec (enc p) with
  | Ok p' ->
      if not (equal_packet Msg.equal p p') then
        Alcotest.failf "%s: decoded to a different packet" name
  | Error e -> Alcotest.failf "%s: decode failed: %s" name e

let vid = View_id.make ~num:3 ~origin:1

let test_constructors () =
  check_roundtrip "newgroup" (Wire.Newgroup { viewid = vid });
  check_roundtrip "accept" (Wire.Accept { viewid = vid });
  check_roundtrip "nack" (Wire.Nack { viewid = vid; proposed_num = 7 });
  check_roundtrip "viewmsg" (Wire.ViewMsg { view = View.make vid [ 0; 1; 2 ] });
  check_roundtrip "token" (Wire.Token (Wire.fresh_token vid));
  check_roundtrip "probe" (Wire.Probe { viewid_num = 12 })

let test_empty_view () =
  check_roundtrip "empty membership" (Wire.ViewMsg { view = View.make vid [] })

let test_max_length_payload () =
  (* Every byte value, cycled, at a length no real client reaches. *)
  let big = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let label = Label.make ~id:vid ~seqno:1 ~origin:0 in
  check_roundtrip "64 KiB payload"
    (Wire.Token
       {
         (Wire.fresh_token vid) with
         Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.App (label, big) } ];
         next_idx = 1;
       })

let test_framing_payload () =
  let label = Label.make ~id:vid ~seqno:1 ~origin:0 in
  List.iter
    (fun v -> check_roundtrip ("framing payload " ^ String.escaped v)
        (Wire.Token
           {
             (Wire.fresh_token vid) with
             Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.App (label, v) } ];
             next_idx = 1;
           }))
    [ ""; "|"; "%"; "%n"; "||%%||"; String.make 1000 '|'; String.make 1000 '%' ]

(* The batched frame from the throughput path: one token entry carrying a
   whole [Msg.Batch], exercised at the same extremes as single [App]s. *)
let batch_packet entries =
  Wire.Token
    {
      (Wire.fresh_token vid) with
      Wire.entries = [ { Wire.idx = 0; src = 0; msg = Msg.Batch entries } ];
      next_idx = 1;
    }

let test_batch_roundtrip () =
  let label i = Label.make ~id:vid ~seqno:i ~origin:0 in
  check_roundtrip "empty batch" (batch_packet []);
  check_roundtrip "singleton batch" (batch_packet [ (label 1, "x") ]);
  check_roundtrip "multi-entry batch"
    (batch_packet [ (label 1, "x"); (label 2, ""); (label 3, "y|z%") ]);
  let big = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  check_roundtrip "64 KiB batched payload"
    (batch_packet [ (label 1, big); (label 2, "small") ]);
  List.iter
    (fun v ->
      check_roundtrip
        ("batch framing payload " ^ String.escaped v)
        (batch_packet [ (label 1, v); (label 2, v ^ v) ]))
    [ ""; "|"; "%"; "%n"; "||%%||"; String.make 1000 '|'; String.make 1000 '%' ]

let test_batch_truncation_total () =
  let label i = Label.make ~id:vid ~seqno:i ~origin:0 in
  let s =
    enc (batch_packet [ (label 1, "abc|def%ghi"); (label 2, String.make 200 '%') ])
  in
  for cut = 0 to String.length s do
    match dec (String.sub s 0 cut) with
    | Ok _ | Error _ -> ()
  done;
  (* Whole-frame decode still succeeds after surviving every prefix. *)
  match dec s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full batch frame failed to decode: %s" e

let test_garbage_rejected () =
  List.iter
    (fun s ->
      match dec s with
      | Error _ -> ()
      | Ok p ->
          Alcotest.failf "garbage %S decoded to %s" s
            (Format.asprintf "%a" Wire.pp_packet p))
    [ ""; "zz"; "tk"; "ng"; "ng|x"; "tk|1|0|notanint"; "vm|1|0"; "%n%n" ]

(* --------------------------- int extremes --------------------------- *)

(* Every int field of every constructor at [x]: view ids, labels, token
   indices, sources, counts and map keys, members, summary fields. *)
let test_int_extremes () =
  List.iter
    (fun x ->
      let vid = View_id.make ~num:x ~origin:x in
      let label = Label.make ~id:vid ~seqno:x ~origin:x in
      let counts = Proc.Map.singleton x x in
      let summary =
        Summary.make
          ~con:(Label.Map.singleton label "v")
          ~ord:[ label ] ~next:x ~high:(Some vid)
      in
      let token msg =
        Wire.Token
          {
            Wire.viewid = vid;
            entries = [ { Wire.idx = x; src = x; msg } ];
            next_idx = x;
            delivered = counts;
            safe_acked = counts;
            appended = counts;
          }
      in
      let name what = Printf.sprintf "%s at %d" what x in
      check_roundtrip (name "newgroup") (Wire.Newgroup { viewid = vid });
      check_roundtrip (name "accept") (Wire.Accept { viewid = vid });
      check_roundtrip (name "nack") (Wire.Nack { viewid = vid; proposed_num = x });
      check_roundtrip (name "viewmsg") (Wire.ViewMsg { view = View.make vid [ x; 0 ] });
      check_roundtrip (name "probe") (Wire.Probe { viewid_num = x });
      check_roundtrip (name "token app") (token (Msg.App (label, "v")));
      check_roundtrip (name "token batch") (token (Msg.Batch [ (label, "v") ]));
      check_roundtrip (name "token summary") (token (Msg.Summary summary)))
    Codec_check.extremes

(* ------------------------- malformed frames ------------------------- *)

module Enc = Wire.Enc

let rejects = Codec_check.rejects

(* Tag, then view id (1, 0): the first three bytes of a token frame. *)
let token_head b =
  Enc.tag b 4;
  Enc.int b 1;
  Enc.int b 0

(* A token frame with one entry (idx 0, src 0), up to its message tag. *)
let entry_head b =
  token_head b;
  List.iter (Enc.int b) [ 1; 0; 0 ]

(* ... up to the value of an [App] entry labelled (1, 0).1.0. *)
let app_head b =
  entry_head b;
  Enc.tag b 0;
  List.iter (Enc.int b) [ 1; 0; 1; 0 ]

let frame = Codec_check.frame

let test_malformed () =
  Codec_check.generic_cases dec ~valid:(enc (Wire.Probe { viewid_num = 3 }));
  let huge_entries =
    frame (fun b ->
        token_head b;
        Enc.int b Codec_check.huge)
  in
  Alcotest.(check int) "a 12-byte frame" 12 (String.length huge_entries);
  rejects "2^60 token entries" dec huge_entries
    ~mentions:[ "token.entries"; "byte 3"; "exceeds the 0 bytes left" ];
  rejects "1 MiB value in a short frame" dec
    (frame (fun b ->
         app_head b;
         Enc.int b Codec_check.mib;
         Buffer.add_string b "abc"))
    ~mentions:[ "entry.value"; "exceeds the 3 bytes left" ];
  rejects "2^60 batch entries" dec
    (frame (fun b ->
         entry_head b;
         Enc.tag b 1;
         Enc.int b Codec_check.huge))
    ~mentions:[ "batch"; "byte 7" ];
  rejects "2^60 view members" dec
    (frame (fun b ->
         Enc.tag b 3;
         List.iter (Enc.int b) [ 1; 0; Codec_check.huge ]))
    ~mentions:[ "view.set" ];
  rejects "negative entry count" dec
    (frame (fun b ->
         token_head b;
         Enc.int b (-1)))
    ~mentions:[ "token.entries"; "negative length -1" ];
  rejects "negative value length" dec
    (frame (fun b ->
         app_head b;
         Enc.int b (-5)))
    ~mentions:[ "entry.value"; "negative length -5" ];
  rejects "overlong varint" dec "\x05\x80\x00"
    ~mentions:[ "probe.viewid_num"; "byte 1"; "overlong" ];
  rejects "varint past 63 bits" dec ("\x05" ^ String.make 9 '\xff' ^ "\x01")
    ~mentions:[ "probe.viewid_num"; "overflows" ];
  rejects "truncated varint" dec "\x05\x80" ~mentions:[ "truncated" ];
  rejects "unknown packet tag" dec "\x06" ~mentions:[ "packet"; "unknown tag 6" ];
  rejects "unknown msg tag" dec
    (frame (fun b ->
         entry_head b;
         Enc.tag b 3))
    ~mentions:[ "msg"; "unknown tag 3"; "byte 6" ];
  (* A summary with empty [con] and [ord], [next] 1, then option tag 2. *)
  rejects "unknown option tag" dec
    (frame (fun b ->
         entry_head b;
         Enc.tag b 2;
         List.iter (Enc.int b) [ 0; 0; 1 ];
         Enc.tag b 2))
    ~mentions:[ "summary.high"; "unknown tag 2"; "byte 10" ]

(* A ~700 KB frame that fails near its end: the message stays short. *)
let test_bounded_errors () =
  let label i = Label.make ~id:vid ~seqno:i ~origin:0 in
  let big = String.make 70_000 '|' in
  let s = enc (batch_packet (List.init 10 (fun i -> (label i, big)))) in
  Alcotest.(check bool) "frame over 700 KB" true (String.length s > 700_000);
  rejects "truncated by one byte" dec (String.sub s 0 (String.length s - 1))
    ~mentions:[ "token.appended"; Printf.sprintf "byte %d" (String.length s - 1) ];
  rejects "one trailing byte" dec (s ^ "|") ~mentions:[ "trailing" ];
  rejects "garbage after a long value" dec
    (String.sub s 0 (String.length s - 4) ^ "\xff\xff\xff\xff")
    ~mentions:[ "byte" ]

let () =
  Alcotest.run "wire codec"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all constructors" `Quick test_constructors;
          Alcotest.test_case "empty view" `Quick test_empty_view;
          Alcotest.test_case "max-length payload" `Quick test_max_length_payload;
          Alcotest.test_case "framing characters as payload" `Quick
            test_framing_payload;
          Alcotest.test_case "batched frame" `Quick test_batch_roundtrip;
          Alcotest.test_case "batched frame truncation is total" `Quick
            test_batch_truncation_total;
          Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
          Alcotest.test_case "int fields at the extremes" `Quick test_int_extremes;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "rejected without an exception or a large allocation"
            `Quick test_malformed;
          Alcotest.test_case "errors stay short on large frames" `Quick
            test_bounded_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_string_roundtrip;
            prop_garbage_total;
            prop_truncation_total;
          ] );
    ]
