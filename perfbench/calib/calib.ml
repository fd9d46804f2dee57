(* Calibration kernel and the meter that interleaves it with the
   benchmark's operations.

   The host this benchmark runs on shares its cores and its last-level
   cache with other work, so the same operation can take twice as long
   from one minute to the next.  The kernel is a fixed unit of work
   written against the standard library only: it builds a 2048-entry
   balanced map and folds it (allocation and pointer chasing, like the
   program's tree code), then makes 4000 random reads over a 32 MB
   off-heap array (larger than the per-core caches, so it slows down
   when neighbours crowd the shared cache, as the program's large heaps
   do).  Each half alone tracked the program's slowdowns less well.
   Its speed is measured in short slices spread evenly through a run,
   and every timing is rescaled to the speed [reference_units_per_ms];
   a slowdown that hits the program and the kernel alike cancels out of
   the ratio. *)

let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* Kernel units per millisecond at the reference speed.  Fixed: it was
   measured once on a quiet 2-core x86-64 container and never changes
   with the program, so calibrated figures from different commits are
   comparable. *)
let reference_units_per_ms = 2.0

module Int_map = Map.Make (Int)

(* Off the OCaml heap, so it never shows in heap_peak_mb. *)
let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22) in
  Bigarray.Array1.fill t 1;
  t

let sink = ref 0
let cursor = ref 1

(* One unit allocates about 110k words, well inside the 256k-word minor
   heap; [one_unit] empties the minor heap first, so no collection
   happens during a unit and nothing of it is ever promoted: the kernel
   does not grow the major heap. *)
let unit_of_work () =
  let map = ref Int_map.empty in
  for i = 0 to 2047 do
    map := Int_map.add ((i * 7919) land 65535) i !map
  done;
  let acc = ref (Int_map.fold (fun k v acc -> acc + k + v) !map 0) in
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref !cursor in
  for _ = 1 to 4000 do
    x := ((!x * 1103515245) + 12345) land mask;
    acc := !acc + Bigarray.Array1.unsafe_get table !x
  done;
  cursor := !x;
  sink := Sys.opaque_identity (!sink + !acc)

(* Operations are grouped into consecutive windows of about
   [window_ms] of operation time; each window's kernel slices follow its
   operations, and a sample is calibrated by the speed its own window
   measured.  The host's slow spells last seconds, so a window sees the
   same conditions as its operations, while a whole-run average would
   mix them.  Kernel time is kept at [share] of operation time. *)
let window_ms = 500.0
let share = 0.15

type window = {
  mutable w_op_ms : float;
  mutable w_kernel_ms : float;
  mutable w_units : int;
}

type meter = {
  mutable current : window;
  mutable closed : window list;  (* newest first *)
  mutable count : int;           (* windows opened so far *)
}

let new_window () = { w_op_ms = 0.0; w_kernel_ms = 0.0; w_units = 0 }

let meter () = { current = new_window (); closed = []; count = 1 }

(* Words the kernel promoted to the major heap: a trace at most, since
   a unit fits in the minor heap it starts on empty. *)
let promoted = ref 0.0

let one_unit w =
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t0 = now_ns () in
  unit_of_work ();
  w.w_kernel_ms <- w.w_kernel_ms +. ms_since t0;
  w.w_units <- w.w_units + 1;
  promoted := !promoted +. ((Gc.quick_stat ()).Gc.promoted_words -. p0)

(* Record an operation's raw time and run kernel units until the
   window's kernel time is back at [share] of its operation time.
   Returns the window the operation belongs to. *)
let account m op_ms =
  let w = m.current in
  let id = m.count - 1 in
  w.w_op_ms <- w.w_op_ms +. op_ms;
  while w.w_kernel_ms < share *. w.w_op_ms do
    one_unit w
  done;
  if w.w_op_ms >= window_ms then begin
    m.closed <- w :: m.closed;
    m.current <- new_window ();
    m.count <- m.count + 1
  end;
  id

(* Run the kernel for about [ms] milliseconds in the current window
   (the slices around a single long call such as a hosting). *)
let run_for m ms =
  let w = m.current in
  let target = w.w_kernel_ms +. ms in
  while w.w_kernel_ms < target do
    one_unit w
  done

let windows m =
  Array.of_list (List.rev (if m.current.w_units > 0 then m.current :: m.closed else m.closed))

let speed w = if w.w_kernel_ms <= 0.0 then nan else float w.w_units /. w.w_kernel_ms

(* Multiply a raw time by this to express it at the reference speed:
   on a machine running at half speed the kernel measures half the
   units per ms, and the raw time is halved back. *)
let factor_of w = speed w /. reference_units_per_ms

(* Per-window factors, indexed by the ids [account] returns. *)
let factors m = Array.map factor_of (windows m)

(* Whole-meter kernel speed, for the report. *)
let units_per_ms m =
  let k, u =
    Array.fold_left (fun (k, u) w -> k +. w.w_kernel_ms, u + w.w_units) (0.0, 0) (windows m)
  in
  if k <= 0.0 then nan else float u /. k

let kernel_ms m = Array.fold_left (fun acc w -> acc +. w.w_kernel_ms) 0.0 (windows m)

(* Whole-meter factor: the setup's flanking slices, and per-layer
   figures of the traced run. *)
let factor m = units_per_ms m /. reference_units_per_ms
