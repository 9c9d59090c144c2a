type t = { id : int; rows : int; cols : int; data : float array }

(* Unique ids let callers (the GCN encoder) memoize derived data by
   physical matrix; every constructor mints a fresh id, and no operation
   ever mutates [data] of an existing matrix except the explicit [set].
   Atomic: matrices are minted concurrently from self-play worker
   domains, and a torn increment would hand two matrices one cache key. *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let make ~rows ~cols c =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.make: non-positive shape";
  { id = next_id (); rows; cols; data = Array.make (rows * cols) c }

let init ~rows ~cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.init: non-positive shape";
  { id = next_id (); rows; cols;
    data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let id m = m.id

let zero ~rows ~cols = make ~rows ~cols 0.0

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Mat.of_arrays: empty row";
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged";
      Array.iter (fun x -> if Float.is_nan x then invalid_arg "Mat.of_arrays: NaN") r)
    a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let rows m = m.rows
let cols m = m.cols
let get m i j = m.data.((i * m.cols) + j)
let set m i j c = m.data.((i * m.cols) + j) <- c

let blit_to_floatarray m dst pos =
  let n = Array.length m.data in
  if pos < 0 || pos + n > Float.Array.length dst then
    invalid_arg "Mat.blit_to_floatarray: out of bounds";
  for k = 0 to n - 1 do
    Float.Array.unsafe_set dst (pos + k) (Array.unsafe_get m.data k)
  done

let copy m = { m with id = next_id (); data = Array.copy m.data }
let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)
let row m i = Vec.init m.cols (fun j -> get m i j)
let col m j = Vec.init m.rows (fun i -> get m i j)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: shape mismatch";
  { a with id = next_id ();
    data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let add_into dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Mat.add_into: shape mismatch";
  Array.iteri (fun k x -> dst.data.(k) <- dst.data.(k) +. x) src.data

let add_row_into m i (v : Vec.t) =
  if i < 0 || i >= m.rows then invalid_arg "Mat.add_row_into: row out of range";
  if Vec.length v <> m.cols then invalid_arg "Mat.add_row_into: length mismatch";
  let base = i * m.cols in
  for j = 0 to m.cols - 1 do
    Vec.set v j (Vec.get v j +. m.data.(base + j))
  done

let is_zero m = Array.for_all (fun x -> x = 0.0) m.data
let has_inf m = Array.exists Cost.is_inf m.data
let min_value m = Array.fold_left Cost.min Cost.inf m.data

let interference m =
  init ~rows:m ~cols:m (fun i j -> if i = j then Cost.inf else Cost.zero)

let equal a b =
  a.rows = b.rows && a.cols = b.cols && Array.for_all2 Cost.equal a.data b.data

let approx_equal ?eps a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Cost.approx_equal ?eps x y) a.data b.data

let map f m = { m with id = next_id (); data = Array.map f m.data }

let iteri f m =
  Array.iteri (fun k x -> f (k / m.cols) (k mod m.cols) x) m.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Cost.pp)
      (Array.to_list (Vec.to_array (row m i)))
  done;
  Format.fprintf ppf "@]"
