module Vec = Stc_numerics.Vec

let rbf gamma x y = exp (-.gamma *. Vec.dist2 x y)

let default_gamma ~dim =
  if dim <= 0 then invalid_arg "Kernel.default_gamma: dim must be positive";
  1.0 /. float_of_int dim

let median_gamma x =
  let n = Array.length x in
  if n < 2 then 1.0
  else begin
    let dim = Array.length x.(0) in
    (* deterministic sample of pairs: stride through (i, i + step) *)
    let budget = 2048 in
    let distances = ref [] in
    let count = ref 0 in
    let step = Stdlib.max 1 (n / 64) in
    (try
       for offset = 1 to n - 1 do
         if offset mod step = 0 || offset < 8 then
           for i = 0 to n - 1 - offset do
             if !count < budget then begin
               let d2 = Vec.dist2 x.(i) x.(i + offset) in
               if d2 > 0.0 then begin
                 distances := d2 :: !distances;
                 incr count
               end
             end
             else raise Exit
           done
       done
     with Exit -> ());
    match !distances with
    | [] -> default_gamma ~dim:(Stdlib.max 1 dim)
    | ds ->
      let arr = Array.of_list ds in
      Array.sort compare arr;
      let median = arr.(Array.length arr / 2) in
      if median <= 0.0 then default_gamma ~dim:(Stdlib.max 1 dim)
      else 1.0 /. median
  end
