(* In-memory span recorder for the traced run.

   Every call the traced run makes into a layer's public function is
   wrapped in a span (name, start, end, parent, operation id, minor
   words allocated).  Spans are only kept in memory while the run
   measures and are written out once it ends; per-layer self time,
   allocation and call counts are derived from them. *)

type span = {
  id : int;
  op : int;
  parent : int;  (* -1 at the root of an operation *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = 0 }

(* Start a new operation: spans opened from here on share its id. *)
let next_op t = t.op <- t.op + 1

let duration_ms s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e6

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let words0 = Gc.minor_words () in
  let start_ns = Calib.now_ns () in
  let finish () =
    let stop_ns = Calib.now_ns () in
    let minor_words = Gc.minor_words () -. words0 in
    t.stack <- List.tl t.stack;
    t.spans <- { id; op = t.op; parent; name; start_ns; stop_ns; minor_words } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

type layer = {
  calls : int;
  self_ms : float;   (* summed over calls *)
  words : float;     (* minor words summed over calls, children included *)
}

(* Self time of a span: its duration minus the part its children
   cover (children never overlap: the recorder is single-threaded). *)
let layers t =
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (duration_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    t.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = duration_ms s in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
      let prev =
        Option.value
          ~default:{ calls = 0; self_ms = 0.0; words = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = prev.calls + 1;
          self_ms = prev.self_ms +. self;
          words = prev.words +. s.minor_words })
    t.spans;
  by_name

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON array, one span per line, in start order. *)
let write t path =
  let spans = List.sort (fun a b -> compare a.id b.id) t.spans in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"op\":%d,\"parent\":%d,\"name\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f}\n"
        (if i = 0 then "" else ",")
        s.id s.op s.parent (json_string s.name) s.start_ns s.stop_ns s.minor_words)
    spans;
  output_string oc "]\n";
  close_out oc;
  List.length spans
