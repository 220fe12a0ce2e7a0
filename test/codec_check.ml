(* Checks shared by the wire codec tests (VStoTO packets, Skeen, the
   sequencer): malformed frames must be rejected with a short message
   naming the field, without allocating in proportion to what the frame
   claims. *)

(* Every int field is round-tripped at these values. *)
let extremes = [ min_int; -1; 0; max_int ]

(* A frame built field by field with the shared framing, so a test can
   write what no encoder would. *)
let frame f =
  let b = Buffer.create 16 in
  f b;
  Buffer.contents b

(* Claimed lengths and counts far beyond the frames that carry them:
   allocating for the claim would exhaust memory ([huge]) or break the
   allocation bound below ([mib]). *)
let huge = 1 lsl 60
let mib = 1 lsl 20

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let max_error_len = 200

(* Decoding may copy the payloads it reads before it meets the fault, so
   the bound grows with the frame, never with what the frame claims. *)
let max_alloc_bytes s = (64 * 1024) + (2 * String.length s)

let rejects ?(mentions = []) name dec s =
  let before = Gc.allocated_bytes () in
  let result = dec s in
  let allocated = Gc.allocated_bytes () -. before in
  match result with
  | Ok _ -> Alcotest.failf "%s: %S decoded" name s
  | Error e ->
      if String.length e > max_error_len then
        Alcotest.failf "%s: error of %d bytes: %s" name (String.length e) e;
      List.iter
        (fun sub ->
          if not (contains ~sub e) then
            Alcotest.failf "%s: error %S does not mention %S" name e sub)
        mentions;
      if allocated > float_of_int (max_alloc_bytes s) then
        Alcotest.failf "%s: rejecting a %d-byte frame allocated %.0f bytes" name
          (String.length s) allocated

(* Faults in any frame, whatever the packet type. [valid] is any
   well-formed frame. *)
let generic_cases dec ~valid =
  rejects "empty frame" dec "" ~mentions:[ "missing tag"; "byte 0" ];
  rejects "unknown tag 0xff" dec "\xff" ~mentions:[ "unknown tag 255"; "byte 0" ];
  rejects "trailing byte" dec (valid ^ "\x00")
    ~mentions:[ "1 trailing bytes"; Printf.sprintf "byte %d" (String.length valid) ];
  rejects "trailing frame" dec (valid ^ valid) ~mentions:[ "trailing" ]
