type t = float array

let create n x = Array.make n x

let init = Array.init

let copy = Array.copy

let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length x) (Array.length y))

let add x y =
  check_dims "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_dims "sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0.0 x

let dist2 x y =
  check_dims "dist2" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let map = Array.map

let map2 f x y =
  check_dims "map2" x y;
  Array.mapi (fun i xi -> f xi y.(i)) x

let max_index x =
  if Array.length x = 0 then invalid_arg "Vec.max_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let of_list = Array.of_list

let to_list = Array.to_list
