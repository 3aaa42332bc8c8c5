(* splitmix64: tiny, fast, passes BigCrush on its 64-bit outputs, and is
   trivially splittable, which is what Monte-Carlo instance streams need. *)

type t = { mutable state : int64; mutable cached_normal : float option }

let golden = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.of_int seed; cached_normal = None }

let next_state t =
  t.state <- Int64.add t.state golden;
  t.state

let mix z0 =
  let z = Int64.mul (Int64.logxor z0 (Int64.shift_right_logical z0 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uint64 t = mix (next_state t)

let split t =
  { state = uint64 t; cached_normal = None }

(* Take the top 53 bits for a uniform double in [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t lo hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let normal t =
  match t.cached_normal with
  | Some z ->
    t.cached_normal <- None;
    z
  | None ->
    (* Box-Muller; u1 must avoid 0 for the log *)
    let rec nonzero () =
      let u = float t in
      if u > 0.0 then u else nonzero ()
    in
    let u1 = nonzero () and u2 = float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.cached_normal <- Some (r *. sin theta);
    r *. cos theta

let gaussian t ~mean ~sigma = mean +. (sigma *. normal t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* modulo bias is negligible for the small bounds used here, but reject
     anyway to keep the distribution exact *)
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int (Int64.of_int n)) in
  let rec draw () =
    let x = Int64.shift_right_logical (uint64 t) 1 in
    if x >= limit then draw () else Int64.to_int (Int64.rem x (Int64.of_int n))
  in
  draw ()

let bool t = Int64.logand (uint64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
