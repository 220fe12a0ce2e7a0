module Re = Runtime_events

type t = {
  cursor : Re.cursor;
  callbacks : Re.Callbacks.t;
  opened : (int, int64) Hashtbl.t;  (* ring -> start of its open EV_MINOR *)
  totals : (int, int64) Hashtbl.t;  (* ring -> nanoseconds in EV_MINOR *)
  counting : bool ref;
  lost : int ref;
}

let create () =
  Re.start ();
  Re.pause ();
  let opened = Hashtbl.create 8 and totals = Hashtbl.create 8 in
  let counting = ref false and lost = ref 0 in
  let runtime_begin ring ts phase =
    if phase = Re.EV_MINOR then
      Hashtbl.replace opened ring (Re.Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    if phase = Re.EV_MINOR then begin
      (match Hashtbl.find_opt opened ring with
      | Some t0 when !counting ->
          let d = Int64.sub (Re.Timestamp.to_int64 ts) t0 in
          let prev = Option.value ~default:0L (Hashtbl.find_opt totals ring) in
          Hashtbl.replace totals ring (Int64.add prev d)
      | _ -> ());
      Hashtbl.remove opened ring
    end
  in
  let lost_events _ring n = if !counting then lost := !lost + n in
  {
    cursor = Re.create_cursor None;
    callbacks = Re.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    opened;
    totals;
    counting;
    lost;
  }

let poll t = ignore (Re.read_poll t.cursor t.callbacks None)

let resume t =
  poll t;
  Hashtbl.reset t.opened;
  Hashtbl.reset t.totals;
  t.lost := 0;
  t.counting := true;
  Re.resume ()

let pause t =
  Re.pause ();
  poll t;
  t.counting := false

let pause_s t =
  Hashtbl.fold
    (fun _ ns acc -> Float.max acc (Int64.to_float ns *. 1e-9))
    t.totals 0.0

let lost t = !(t.lost)
