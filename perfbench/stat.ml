(* Order statistics over raw samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the default of most
   statistics packages). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let r = p *. float (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* Samples strictly above the [p] quantile's rank: the tail percentile
   must leave at least ten of them, or it describes single outliers. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float n))
