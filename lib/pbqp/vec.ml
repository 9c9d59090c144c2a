type t = float array

let make m c = Array.make m c
let init m f = Array.init m f
let zero m = Array.make m 0.0

let of_array a =
  Array.iter (fun x -> if Float.is_nan x then invalid_arg "Vec.of_array: NaN") a;
  Array.copy a

let of_list l = of_array (Array.of_list l)
let to_array v = Array.copy v
let copy = Array.copy
let length = Array.length
let get (v : t) i = v.(i)
let set (v : t) i c = v.(i) <- c

let blit_to_floatarray (v : t) dst pos =
  let n = Array.length v in
  if pos < 0 || pos + n > Float.Array.length dst then
    invalid_arg "Vec.blit_to_floatarray: out of bounds";
  for i = 0 to n - 1 do
    Float.Array.unsafe_set dst (pos + i) (Array.unsafe_get v i)
  done

let add a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.add: length mismatch";
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let add_into dst src =
  if Array.length dst <> Array.length src then
    invalid_arg "Vec.add_into: length mismatch";
  Array.iteri (fun i x -> dst.(i) <- dst.(i) +. x) src

let min_value v = Array.fold_left Cost.min Cost.inf v

let argmin v =
  if Array.length v = 0 then invalid_arg "Vec.argmin: empty";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) < v.(!best) then best := i
  done;
  !best

let liberty v =
  Array.fold_left (fun acc c -> if Cost.is_finite c then acc + 1 else acc) 0 v

let finite_indices v =
  let acc = ref [] in
  for i = Array.length v - 1 downto 0 do
    if Cost.is_finite v.(i) then acc := i :: !acc
  done;
  !acc

let is_all_inf v = liberty v = 0
let equal a b = Array.length a = Array.length b && Array.for_all2 Cost.equal a b

let approx_equal ?eps a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Cost.approx_equal ?eps x y) a b

let fold f v init =
  let acc = ref init in
  Array.iteri (fun i c -> acc := f i c !acc) v;
  !acc

let iteri f v = Array.iteri f v
let map f v = Array.map f v

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Cost.pp)
    (Array.to_list v)
