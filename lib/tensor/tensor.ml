type t = { shape : int array; data : float array }

exception Shape_mismatch of string

let shape_to_string shape =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int shape)) ^ "]"

let product shape = Array.fold_left ( * ) 1 shape

let fail_shape op a b =
  raise
    (Shape_mismatch
       (Printf.sprintf "%s: %s vs %s" op (shape_to_string a) (shape_to_string b)))

(* Construction *)

let create shape v = { shape = Array.copy shape; data = Array.make (product shape) v }
let zeros shape = create shape 0.
let ones shape = create shape 1.

let init shape f =
  { shape = Array.copy shape; data = Array.init (product shape) f }

let of_array shape data =
  if product shape <> Array.length data then
    raise
      (Shape_mismatch
         (Printf.sprintf "of_array: shape %s needs %d elements, got %d"
            (shape_to_string shape) (product shape) (Array.length data)));
  { shape = Array.copy shape; data }

let scalar v = { shape = [||]; data = [| v |] }
let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }

let randn g ?(mu = 0.) ?(sigma = 1.) shape =
  init shape (fun _ -> Prng.normal g ~mu ~sigma ())

let rand_uniform g ?(lo = 0.) ?(hi = 1.) shape =
  init shape (fun _ -> Prng.float_in g lo hi)

(* Shape accessors *)

let shape t = Array.copy t.shape
let ndim t = Array.length t.shape
let numel t = Array.length t.data

let dim t i =
  if i < 0 || i >= Array.length t.shape then
    invalid_arg (Printf.sprintf "Tensor.dim: axis %d of rank %d" i (ndim t));
  t.shape.(i)

let same_shape a b = a.shape = b.shape

let reshape t shape =
  if product shape <> numel t then
    raise
      (Shape_mismatch
         (Printf.sprintf "reshape: %s (=%d) to %s (=%d)"
            (shape_to_string t.shape) (numel t) (shape_to_string shape)
            (product shape)));
  { shape = Array.copy shape; data = t.data }

let flatten t = { shape = [| numel t |]; data = t.data }

(* Element access *)

let flat_index t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then
    invalid_arg
      (Printf.sprintf "Tensor.flat_index: %d indices for rank %d"
         (Array.length idx) n);
  let off = ref 0 in
  for i = 0 to n - 1 do
    let k = idx.(i) in
    if k < 0 || k >= t.shape.(i) then
      invalid_arg
        (Printf.sprintf "Tensor.flat_index: index %d out of bounds on axis %d (size %d)"
           k i t.shape.(i));
    off := (!off * t.shape.(i)) + k
  done;
  !off

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- v
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- v

(* Elementwise *)

let map f t = { shape = Array.copy t.shape; data = Array.map f t.data }

let map2 f a b =
  if not (same_shape a b) then fail_shape "map2" a.shape b.shape;
  { shape = Array.copy a.shape; data = Array.map2 f a.data b.data }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let div a b = map2 ( /. ) a b
let scale k t = map (fun v -> k *. v) t
let add_scalar k t = map (fun v -> k +. v) t
let neg t = map (fun v -> -.v) t
(* Specialized (not [map]-based): polymorphic [Array.map] boxes every
   float on its way through the closure, which makes relu a measurable
   slice of inference.  [Array.make] zero-fills, so only positive
   entries need a store. *)
let relu t =
  let d = t.data in
  let n = Array.length d in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get d i in
    if v > 0. then Array.unsafe_set out i v
  done;
  { shape = Array.copy t.shape; data = out }

let clip ~lo ~hi t =
  map (fun v -> if v < lo then lo else if v > hi then hi else v) t

let add_inplace dst src =
  if not (same_shape dst src) then fail_shape "add_inplace" dst.shape src.shape;
  let d = dst.data and s = src.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) +. s.(i)
  done

let axpy ~alpha x y =
  if not (same_shape x y) then fail_shape "axpy" x.shape y.shape;
  let xd = x.data and yd = y.data in
  for i = 0 to Array.length xd - 1 do
    yd.(i) <- yd.(i) +. (alpha *. xd.(i))
  done

let scale_inplace k t =
  let d = t.data in
  for i = 0 to Array.length d - 1 do
    d.(i) <- k *. d.(i)
  done

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(* Reductions *)

let sum t = Array.fold_left ( +. ) 0. t.data

let mean t =
  if numel t = 0 then invalid_arg "Tensor.mean: empty tensor";
  sum t /. float_of_int (numel t)

let fold_nonempty name f t =
  if numel t = 0 then invalid_arg ("Tensor." ^ name ^ ": empty tensor");
  let acc = ref t.data.(0) in
  for i = 1 to numel t - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let max_val t = fold_nonempty "max_val" Float.max t
let min_val t = fold_nonempty "min_val" Float.min t

let argmax t =
  if numel t = 0 then invalid_arg "Tensor.argmax: empty tensor";
  let best = ref 0 in
  for i = 1 to numel t - 1 do
    if t.data.(i) > t.data.(!best) then best := i
  done;
  !best

let dot a b =
  if not (same_shape a b) then fail_shape "dot" a.shape b.shape;
  (* Shapes validated above, so the reduction can use unsafe accesses. *)
  let ad = a.data and bd = b.data in
  let acc = ref 0. in
  for i = 0 to numel a - 1 do
    acc := !acc +. (Array.unsafe_get ad i *. Array.unsafe_get bd i)
  done;
  !acc

let sq_norm t = dot t t
let l1_norm t = Array.fold_left (fun acc v -> acc +. Float.abs v) 0. t.data

let linf_norm t =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. t.data

(* Linear algebra *)

let check_rank name t r =
  if ndim t <> r then
    invalid_arg
      (Printf.sprintf "Tensor.%s: expected rank %d, got %s" name r
         (shape_to_string t.shape))

(* Accumulating GEMM kernel: [od] (pre-initialized by the caller, e.g.
   with zeros or a broadcast bias) gains [a * b].  Shapes must already be
   validated; every index below is in bounds by construction, so the
   kernel runs on [Array.unsafe_get]/[unsafe_set].  4x4 register tiling:
   sixteen accumulators live across the whole [p] loop (the local float
   refs do not escape, so ocamlopt unboxes them), so each output element
   is read and written exactly once instead of once per [p].  Each output
   element is accumulated in ascending-[p] order regardless of [m], [n]
   or the tiling, which keeps results independent of how callers batch
   their columns — the invariant the batched inference engine relies
   on. *)
let gemm_acc ?(ooff = 0) ~m ~k ~n ad bd od =
  (* Column blocking: sweep [jb] columns at a time so the [k * jb] panel
     of [bd] stays resident in cache while every row block passes over
     it — without it, each of the [m/4] row blocks re-streams the whole
     [k * n] matrix from memory (megabytes for batched im2col).  The
     block width targets a ~256 KB panel, is a multiple of 4 so only the
     final block can leave a column remainder, and never shrinks below
     16 columns. *)
  let jb = max 16 (32768 / max 1 k land lnot 3) in
  let jlo = ref 0 in
  while !jlo < n do
    let jhi = min n (!jlo + jb) in
  let i = ref 0 in
  while !i + 4 <= m do
    let i0 = !i in
    let a0 = i0 * k and a1 = (i0 + 1) * k
    and a2 = (i0 + 2) * k and a3 = (i0 + 3) * k in
    let o0 = ooff + (i0 * n)
    and o1 = ooff + ((i0 + 1) * n)
    and o2 = ooff + ((i0 + 2) * n)
    and o3 = ooff + ((i0 + 3) * n) in
    let j = ref !jlo in
    while !j + 4 <= jhi do
      let j0 = !j in
      let c00 = ref (Array.unsafe_get od (o0 + j0))
      and c01 = ref (Array.unsafe_get od (o0 + j0 + 1))
      and c02 = ref (Array.unsafe_get od (o0 + j0 + 2))
      and c03 = ref (Array.unsafe_get od (o0 + j0 + 3))
      and c10 = ref (Array.unsafe_get od (o1 + j0))
      and c11 = ref (Array.unsafe_get od (o1 + j0 + 1))
      and c12 = ref (Array.unsafe_get od (o1 + j0 + 2))
      and c13 = ref (Array.unsafe_get od (o1 + j0 + 3))
      and c20 = ref (Array.unsafe_get od (o2 + j0))
      and c21 = ref (Array.unsafe_get od (o2 + j0 + 1))
      and c22 = ref (Array.unsafe_get od (o2 + j0 + 2))
      and c23 = ref (Array.unsafe_get od (o2 + j0 + 3))
      and c30 = ref (Array.unsafe_get od (o3 + j0))
      and c31 = ref (Array.unsafe_get od (o3 + j0 + 1))
      and c32 = ref (Array.unsafe_get od (o3 + j0 + 2))
      and c33 = ref (Array.unsafe_get od (o3 + j0 + 3)) in
      for p = 0 to k - 1 do
        let v0 = Array.unsafe_get ad (a0 + p)
        and v1 = Array.unsafe_get ad (a1 + p)
        and v2 = Array.unsafe_get ad (a2 + p)
        and v3 = Array.unsafe_get ad (a3 + p)
        and boff = (p * n) + j0 in
        let b0 = Array.unsafe_get bd boff
        and b1 = Array.unsafe_get bd (boff + 1)
        and b2 = Array.unsafe_get bd (boff + 2)
        and b3 = Array.unsafe_get bd (boff + 3) in
        c00 := !c00 +. (v0 *. b0);
        c01 := !c01 +. (v0 *. b1);
        c02 := !c02 +. (v0 *. b2);
        c03 := !c03 +. (v0 *. b3);
        c10 := !c10 +. (v1 *. b0);
        c11 := !c11 +. (v1 *. b1);
        c12 := !c12 +. (v1 *. b2);
        c13 := !c13 +. (v1 *. b3);
        c20 := !c20 +. (v2 *. b0);
        c21 := !c21 +. (v2 *. b1);
        c22 := !c22 +. (v2 *. b2);
        c23 := !c23 +. (v2 *. b3);
        c30 := !c30 +. (v3 *. b0);
        c31 := !c31 +. (v3 *. b1);
        c32 := !c32 +. (v3 *. b2);
        c33 := !c33 +. (v3 *. b3)
      done;
      Array.unsafe_set od (o0 + j0) !c00;
      Array.unsafe_set od (o0 + j0 + 1) !c01;
      Array.unsafe_set od (o0 + j0 + 2) !c02;
      Array.unsafe_set od (o0 + j0 + 3) !c03;
      Array.unsafe_set od (o1 + j0) !c10;
      Array.unsafe_set od (o1 + j0 + 1) !c11;
      Array.unsafe_set od (o1 + j0 + 2) !c12;
      Array.unsafe_set od (o1 + j0 + 3) !c13;
      Array.unsafe_set od (o2 + j0) !c20;
      Array.unsafe_set od (o2 + j0 + 1) !c21;
      Array.unsafe_set od (o2 + j0 + 2) !c22;
      Array.unsafe_set od (o2 + j0 + 3) !c23;
      Array.unsafe_set od (o3 + j0) !c30;
      Array.unsafe_set od (o3 + j0 + 1) !c31;
      Array.unsafe_set od (o3 + j0 + 2) !c32;
      Array.unsafe_set od (o3 + j0 + 3) !c33;
      j := j0 + 4
    done;
    while !j < jhi do
      let j0 = !j in
      let c0 = ref (Array.unsafe_get od (o0 + j0))
      and c1 = ref (Array.unsafe_get od (o1 + j0))
      and c2 = ref (Array.unsafe_get od (o2 + j0))
      and c3 = ref (Array.unsafe_get od (o3 + j0)) in
      for p = 0 to k - 1 do
        let bv = Array.unsafe_get bd ((p * n) + j0) in
        c0 := !c0 +. (Array.unsafe_get ad (a0 + p) *. bv);
        c1 := !c1 +. (Array.unsafe_get ad (a1 + p) *. bv);
        c2 := !c2 +. (Array.unsafe_get ad (a2 + p) *. bv);
        c3 := !c3 +. (Array.unsafe_get ad (a3 + p) *. bv)
      done;
      Array.unsafe_set od (o0 + j0) !c0;
      Array.unsafe_set od (o1 + j0) !c1;
      Array.unsafe_set od (o2 + j0) !c2;
      Array.unsafe_set od (o3 + j0) !c3;
      incr j
    done;
    i := i0 + 4
  done;
  for i = !i to m - 1 do
    let aoff = i * k and orow = ooff + (i * n) in
    for j = !jlo to jhi - 1 do
      let acc = ref (Array.unsafe_get od (orow + j)) in
      for p = 0 to k - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (aoff + p)
             *. Array.unsafe_get bd ((p * n) + j))
      done;
      Array.unsafe_set od (orow + j) !acc
    done
  done;
    jlo := jhi
  done

let matmul a b =
  check_rank "matmul" a 2;
  check_rank "matmul" b 2;
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then fail_shape "matmul" a.shape b.shape;
  let out = zeros [| m; n |] in
  gemm_acc ~m ~k ~n a.data b.data out.data;
  out

let matmul_nt a b =
  check_rank "matmul_nt" a 2;
  check_rank "matmul_nt" b 2;
  let m = a.shape.(0) and k = a.shape.(1) in
  let n = b.shape.(0) and k' = b.shape.(1) in
  if k <> k' then fail_shape "matmul_nt" a.shape b.shape;
  let out = zeros [| m; n |] in
  let ad = a.data and bd = b.data and od = out.data in
  (* Dot-product formulation: out[i, j] = Σ_p b[j, p] * a[i, p], with the
     reduction in ascending-[p] order so a row of the result is bit-equal
     to [matvec b a_row] (multiplication commutes bitwise in IEEE754). *)
  for i = 0 to m - 1 do
    let aoff = i * k and ooff = i * n in
    for j = 0 to n - 1 do
      let boff = j * k in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get bd (boff + p) *. Array.unsafe_get ad (aoff + p))
      done;
      Array.unsafe_set od (ooff + j) !acc
    done
  done;
  out

let matvec a x =
  check_rank "matvec" a 2;
  check_rank "matvec" x 1;
  let m = a.shape.(0) and k = a.shape.(1) in
  if k <> x.shape.(0) then fail_shape "matvec" a.shape x.shape;
  let out = zeros [| m |] in
  let ad = a.data and xd = x.data and od = out.data in
  for i = 0 to m - 1 do
    let acc = ref 0. and off = i * k in
    for p = 0 to k - 1 do
      acc := !acc +. (Array.unsafe_get ad (off + p) *. Array.unsafe_get xd p)
    done;
    od.(i) <- !acc
  done;
  out

let matvec_t a y =
  check_rank "matvec_t" a 2;
  check_rank "matvec_t" y 1;
  let m = a.shape.(0) and k = a.shape.(1) in
  if m <> y.shape.(0) then fail_shape "matvec_t" a.shape y.shape;
  let out = zeros [| k |] in
  let ad = a.data and yd = y.data and od = out.data in
  for i = 0 to m - 1 do
    let yv = yd.(i) and off = i * k in
    if yv <> 0. then
      for p = 0 to k - 1 do
        od.(p) <- od.(p) +. (yv *. ad.(off + p))
      done
  done;
  out

let outer y x =
  check_rank "outer" y 1;
  check_rank "outer" x 1;
  let m = y.shape.(0) and k = x.shape.(0) in
  let out = zeros [| m; k |] in
  let od = out.data in
  for i = 0 to m - 1 do
    let yv = y.data.(i) and off = i * k in
    for p = 0 to k - 1 do
      od.(off + p) <- yv *. x.data.(p)
    done
  done;
  out

let transpose a =
  check_rank "transpose" a 2;
  let m = a.shape.(0) and n = a.shape.(1) in
  init [| n; m |] (fun i ->
      let r = i / m and c = i mod m in
      a.data.((c * n) + r))

(* Convolution: direct cross-correlation on CHW tensors. *)

let conv_out_dim size k stride pad = ((size + (2 * pad) - k) / stride) + 1

let conv2d ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  check_rank "conv2d" x 3;
  check_rank "conv2d" weight 4;
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let out_c = weight.shape.(0)
  and win_c = weight.shape.(1)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  if in_c <> win_c then fail_shape "conv2d" x.shape weight.shape;
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.conv2d: kernel larger than padded input";
  let out = zeros [| out_c; oh; ow |] in
  let xd = x.data and wd = weight.data and od = out.data in
  (* Hot path: indices below are in bounds by the loop structure (every
     access is guarded by the iy/ix range checks), so unsafe accesses are
     used to keep inference fast — this loop dominates attack runtime. *)
  for oc = 0 to out_c - 1 do
    let b = match bias with None -> 0. | Some bt -> bt.data.(oc) in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref b in
        let iy0 = (oy * stride) - pad and ix0 = (ox * stride) - pad in
        for ic = 0 to in_c - 1 do
          let xoff = ic * h * w
          and woff = (((oc * in_c) + ic) * kh) * kw in
          for ky = 0 to kh - 1 do
            let iy = iy0 + ky in
            if iy >= 0 && iy < h then begin
              let xrow = xoff + (iy * w) and wrow = woff + (ky * kw) in
              let kx0 = if ix0 < 0 then -ix0 else 0 in
              let kx1 = if ix0 + kw > w then w - ix0 - 1 else kw - 1 in
              for kx = kx0 to kx1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get xd (xrow + ix0 + kx)
                     *. Array.unsafe_get wd (wrow + kx))
              done
            end
          done
        done;
        Array.unsafe_set od ((((oc * oh) + oy) * ow) + ox) !acc
      done
    done
  done;
  out

(* Truncating integer division rounds toward zero; these round toward
   -inf / +inf for the (possibly negative) padded-coordinate algebra. *)
let div_floor a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let div_ceil a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Copy the patch matrix of one CHW image into [od], whose rows are
   [total_cols] wide, starting at column [col_off].  Out-of-image (padded)
   entries are written as explicit zeros — only the pad fringe, so every
   output position is stored exactly once and callers can hand over an
   uninitialized (reused) buffer without a multi-megabyte memset pass.
   The in-bounds ranges are computed per (ky, kx) tap, so the copy loops
   run without per-element branches on [Array.unsafe_*]. *)
let im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols ~col_off
    ~xoff xd od =
  for ic = 0 to in_c - 1 do
    for ky = 0 to kh - 1 do
      (* iy = oy*stride - pad + ky must lie in [0, h). *)
      let oy_lo = max 0 (div_ceil (pad - ky) stride)
      and oy_hi = min (oh - 1) (div_floor (h - 1 + pad - ky) stride) in
      for kx = 0 to kw - 1 do
        let row = (((ic * kh) + ky) * kw) + kx in
        let ox_lo = max 0 (div_ceil (pad - kx) stride)
        and ox_hi = min (ow - 1) (div_floor (w - 1 + pad - kx) stride) in
        let rbase = (row * total_cols) + col_off in
        if oy_lo > oy_hi || ox_lo > ox_hi then
          (* This tap never lands in-image: the whole row is padding. *)
          for oy = 0 to oh - 1 do
            Array.fill od (rbase + (oy * ow)) ow 0.
          done
        else begin
        for oy = 0 to oy_lo - 1 do
          Array.fill od (rbase + (oy * ow)) ow 0.
        done;
        for oy = oy_hi + 1 to oh - 1 do
          Array.fill od (rbase + (oy * ow)) ow 0.
        done;
        for oy = oy_lo to oy_hi do
          let iy = (oy * stride) - pad + ky in
          let orow = rbase + (oy * ow)
          and xrow = xoff + (((ic * h) + iy) * w) - pad + kx in
          Array.fill od orow ox_lo 0.;
          Array.fill od (orow + ox_hi + 1) (ow - ox_hi - 1) 0.;
          if stride = 1 then
            for ox = ox_lo to ox_hi do
              Array.unsafe_set od (orow + ox) (Array.unsafe_get xd (xrow + ox))
            done
          else
            for ox = ox_lo to ox_hi do
              Array.unsafe_set od (orow + ox)
                (Array.unsafe_get xd (xrow + (ox * stride)))
            done
        done
        end
      done
    done
  done

let im2col ?(stride = 1) ?(pad = 0) ~kh ~kw x =
  check_rank "im2col" x 3;
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.im2col: kernel larger than padded input";
  let rows = in_c * kh * kw and cols = oh * ow in
  let out = zeros [| rows; cols |] in
  im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols:cols
    ~col_off:0 ~xoff:0 x.data out.data;
  out

let im2col_batch ?(stride = 1) ?(pad = 0) ~kh ~kw x =
  check_rank "im2col_batch" x 4;
  let n = x.shape.(0)
  and in_c = x.shape.(1)
  and h = x.shape.(2)
  and w = x.shape.(3) in
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.im2col_batch: kernel larger than padded input";
  let rows = in_c * kh * kw and cols = oh * ow in
  let out = zeros [| rows; n * cols |] in
  (* One shared patch matrix for the whole batch: image [img] owns the
     column block [img*oh*ow, (img+1)*oh*ow). *)
  let image = in_c * h * w in
  for img = 0 to n - 1 do
    im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow
      ~total_cols:(n * cols) ~col_off:(img * cols) ~xoff:(img * image) x.data
      out.data
  done;
  out

(* Per-domain scratch for the batched conv GEMM path.  The per-image
   patch matrix is short-lived but sizable (tens of KB per conv call),
   so allocating it fresh per call hammers the major heap — it exceeds
   the minor-heap large-object threshold.  Each domain keeps one
   growable buffer and reuses it across calls; it is dead before
   [conv2d_gemm_batch] returns, so reuse on the next call is safe even
   when layers chain.  Resident cost per domain is bounded by the
   largest conv it evaluates. *)
let col_scratch : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let scratch key len =
  let r = Domain.DLS.get key in
  if Array.length !r < len then r := Array.make len 0.;
  !r

let conv2d_gemm_batch ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  check_rank "conv2d_gemm_batch" x 4;
  check_rank "conv2d_gemm_batch" weight 4;
  let n = x.shape.(0)
  and in_c = x.shape.(1)
  and h = x.shape.(2)
  and w = x.shape.(3) in
  let out_c = weight.shape.(0)
  and win_c = weight.shape.(1)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  if in_c <> win_c then fail_shape "conv2d_gemm_batch" x.shape weight.shape;
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  let kk = in_c * kh * kw and cols = oh * ow in
  let image = in_c * h * w in
  (* Image-by-image GEMMs over a small per-image patch panel, rather
     than one giant [kk; n*cols] GEMM: image [img]'s output block
     [out_c; oh; ow] is contiguous in NCHW, so each GEMM accumulates
     straight into the output tensor (no flat buffer, no scatter pass),
     and the panel plus the weights stay cache-resident across the
     back-to-back per-image GEMMs instead of streaming megabytes per
     chunk.  Per-element accumulation is still bias-seeded then
     ascending-[p], so results are bit-identical to [conv2d] and
     independent of the batch width.  im2col writes every panel position
     (padding as explicit zeros), so the reused scratch needs no
     re-zeroing pass. *)
  let patches = scratch col_scratch (kk * cols) in
  let out = zeros [| n; out_c; oh; ow |] in
  let ostride = out_c * cols in
  for img = 0 to n - 1 do
    im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~total_cols:cols
      ~col_off:0 ~xoff:(img * image) x.data patches;
    let obase = img * ostride in
    (match bias with
    | None -> () (* [out] is zero-initialized *)
    | Some bt ->
        for oc = 0 to out_c - 1 do
          Array.fill out.data (obase + (oc * cols)) cols bt.data.(oc)
        done);
    gemm_acc ~ooff:obase ~m:out_c ~k:kk ~n:cols weight.data patches out.data
  done;
  out

(* Bitwise equality: same shape and the same 64 bits in every element,
   so a signed zero differs from its opposite and a NaN equals only a
   NaN with the same payload. *)
let identical a b =
  a.shape = b.shape
  &&
  let ad = a.data and bd = b.data in
  let n = Array.length ad in
  let rec go i =
    i >= n
    || Int64.equal
         (Int64.bits_of_float (Array.unsafe_get ad i))
         (Int64.bits_of_float (Array.unsafe_get bd i))
       && go (i + 1)
  in
  go 0

(* Arena kernels.  A [region] is a CHW activation at a fixed slice of
   one flat float array, each channel plane framed by a zero border of
   [border] elements on every side.  The kernels below read and write
   regions in place: a producer writes only the interior of its
   destination, so a border laid down as zeros once stays zero, and a
   conv reading a bordered source finds its padding already in memory. *)

type region = { off : int; c : int; h : int; w : int; border : int }

let region_row r = r.w + (2 * r.border)
let region_plane r = (r.h + (2 * r.border)) * region_row r
let region_size r = r.c * region_plane r

(* Flat index of interior element (0, y, 0). *)
let[@inline] region_at r y = r.off + ((y + r.border) * region_row r) + r.border

let region_index r ch y = (ch * region_plane r) + region_at r y

(* Offset of tap p = (ic, ky, kx) from a window's top-left corner in
   [src]: [ic * plane + ky * row + kx], in ascending-p order. *)
let conv2d_taps ~src ~kh ~kw =
  let row = region_row src and plane = region_plane src in
  Array.init (src.c * kh * kw) (fun p ->
      let ic = p / (kh * kw) and r = p mod (kh * kw) in
      (ic * plane) + (r / kw * row) + (r mod kw))

(* Every kernel below validates its regions against the arena and the
   weights once per call, then runs on unsafe accesses. *)
let check_region name a r =
  if r.off < 0 || r.c < 0 || r.h < 0 || r.w < 0 || r.border < 0
     || r.off + region_size r > Array.length a
  then invalid_arg ("Tensor." ^ name ^ ": region outside the arena")

let check_span name a off n =
  if off < 0 || n < 0 || off + n > Array.length a then
    invalid_arg ("Tensor." ^ name ^ ": slice outside the arena")

let check_conv name a ~taps ~stride ~pad ~weight ~bias ~src ~dst =
  check_region name a src;
  check_region name a dst;
  let ws = weight.shape in
  let k = Array.length taps in
  if
    Array.length ws <> 4 || ws.(0) <> dst.c || ws.(1) <> src.c
    || k <> ws.(1) * ws.(2) * ws.(3)
    || Array.length bias.data <> ws.(0)
    || src.border < pad || stride < 1
    || dst.h <> conv_out_dim src.h ws.(2) stride pad
    || dst.w <> conv_out_dim src.w ws.(3) stride pad
    || (k > 0
       && (taps.(0) <> 0
          || taps.(k - 1)
             <> ((ws.(1) - 1) * region_plane src)
                + ((ws.(2) - 1) * region_row src)
                + ws.(3) - 1))
  then invalid_arg ("Tensor." ^ name ^ ": regions, taps and weight disagree")

(* Implicit-GEMM convolution: output (oc, oy, ox) is the bias plus
   Σ_p weight[oc, p] * src[window(oy, ox) + taps.(p)], summed in
   ascending p over the bordered source — the operands and the order
   [conv2d_gemm_batch] feeds [gemm_acc] from its im2col panel, padding
   zeros included, so every element is bit-equal to it.  A 2-row x
   4-column register tile (eight accumulators, two weights and four
   inputs live per tap) with a column tail and an odd-row tail. *)
let conv2d_into a ~taps ~stride ~pad ~weight ~bias ~src ~dst =
  check_conv "conv2d_into" a ~taps ~stride ~pad ~weight ~bias ~src ~dst;
  let k = Array.length taps in
  let wd = weight.data and bd = bias.data in
  let out_c = dst.c and oh = dst.h and ow = dst.w in
  let srow = region_row src and shift = src.border - pad in
  let dplane = region_plane dst in
  for oy = 0 to oh - 1 do
    let s_row = src.off + (((oy * stride) + shift) * srow) + shift in
    let d_row = region_at dst oy in
    let oc = ref 0 in
    while !oc + 2 <= out_c do
      let o0 = !oc in
      let w0 = o0 * k and w1 = (o0 + 1) * k in
      let d0 = d_row + (o0 * dplane) in
      let d1 = d0 + dplane in
      let b0 = Array.unsafe_get bd o0 and b1 = Array.unsafe_get bd (o0 + 1) in
      let ox = ref 0 in
      while !ox + 4 <= ow do
        let x0 = !ox in
        let s0 = s_row + (x0 * stride) in
        let s1 = s0 + stride in
        let s2 = s1 + stride in
        let s3 = s2 + stride in
        let c00 = ref b0 and c01 = ref b0 and c02 = ref b0 and c03 = ref b0
        and c10 = ref b1 and c11 = ref b1 and c12 = ref b1 and c13 = ref b1 in
        if stride = 1 then
          (* Unit stride: the four inputs sit at constant offsets from
             one index, which the loads fold into their displacement. *)
          for p = 0 to k - 1 do
            let i = s0 + Array.unsafe_get taps p in
            let v0 = Array.unsafe_get wd (w0 + p)
            and v1 = Array.unsafe_get wd (w1 + p)
            and x0 = Array.unsafe_get a i
            and x1 = Array.unsafe_get a (i + 1)
            and x2 = Array.unsafe_get a (i + 2)
            and x3 = Array.unsafe_get a (i + 3) in
            c00 := !c00 +. (v0 *. x0);
            c01 := !c01 +. (v0 *. x1);
            c02 := !c02 +. (v0 *. x2);
            c03 := !c03 +. (v0 *. x3);
            c10 := !c10 +. (v1 *. x0);
            c11 := !c11 +. (v1 *. x1);
            c12 := !c12 +. (v1 *. x2);
            c13 := !c13 +. (v1 *. x3)
          done
        else
          for p = 0 to k - 1 do
            let t = Array.unsafe_get taps p in
            let v0 = Array.unsafe_get wd (w0 + p)
            and v1 = Array.unsafe_get wd (w1 + p)
            and x0 = Array.unsafe_get a (s0 + t)
            and x1 = Array.unsafe_get a (s1 + t)
            and x2 = Array.unsafe_get a (s2 + t)
            and x3 = Array.unsafe_get a (s3 + t) in
            c00 := !c00 +. (v0 *. x0);
            c01 := !c01 +. (v0 *. x1);
            c02 := !c02 +. (v0 *. x2);
            c03 := !c03 +. (v0 *. x3);
            c10 := !c10 +. (v1 *. x0);
            c11 := !c11 +. (v1 *. x1);
            c12 := !c12 +. (v1 *. x2);
            c13 := !c13 +. (v1 *. x3)
          done;
        Array.unsafe_set a (d0 + x0) !c00;
        Array.unsafe_set a (d0 + x0 + 1) !c01;
        Array.unsafe_set a (d0 + x0 + 2) !c02;
        Array.unsafe_set a (d0 + x0 + 3) !c03;
        Array.unsafe_set a (d1 + x0) !c10;
        Array.unsafe_set a (d1 + x0 + 1) !c11;
        Array.unsafe_set a (d1 + x0 + 2) !c12;
        Array.unsafe_set a (d1 + x0 + 3) !c13;
        ox := x0 + 4
      done;
      for x0 = !ox to ow - 1 do
        let s0 = s_row + (x0 * stride) in
        let c0 = ref b0 and c1 = ref b1 in
        for p = 0 to k - 1 do
          let xv = Array.unsafe_get a (s0 + Array.unsafe_get taps p) in
          c0 := !c0 +. (Array.unsafe_get wd (w0 + p) *. xv);
          c1 := !c1 +. (Array.unsafe_get wd (w1 + p) *. xv)
        done;
        Array.unsafe_set a (d0 + x0) !c0;
        Array.unsafe_set a (d1 + x0) !c1
      done;
      oc := o0 + 2
    done;
    if !oc < out_c then begin
      let o0 = !oc in
      let w0 = o0 * k and d0 = d_row + (o0 * dplane) in
      let b0 = Array.unsafe_get bd o0 in
      for x0 = 0 to ow - 1 do
        let s0 = s_row + (x0 * stride) in
        let c0 = ref b0 in
        for p = 0 to k - 1 do
          c0 :=
            !c0
            +. Array.unsafe_get wd (w0 + p)
               *. Array.unsafe_get a (s0 + Array.unsafe_get taps p)
        done;
        Array.unsafe_set a (d0 + x0) !c0
      done
    end
  done

(* The same sum for the output positions [columns.(0 .. count-1)]
   (each [oy * ow + ox]) only, every output channel: the incremental
   first layer's patch. *)
let conv2d_patch_into a ~taps ~stride ~pad ~weight ~bias ~src ~dst ~columns
    ~count =
  check_conv "conv2d_patch_into" a ~taps ~stride ~pad ~weight ~bias ~src ~dst;
  if count < 0 || count > Array.length columns then
    invalid_arg "Tensor.conv2d_patch_into: count out of range";
  let k = Array.length taps in
  let wd = weight.data and bd = bias.data in
  let ow = dst.w and srow = region_row src and shift = src.border - pad in
  let dplane = region_plane dst in
  for jj = 0 to count - 1 do
    let col = columns.(jj) in
    if col < 0 || col >= dst.h * ow then
      invalid_arg "Tensor.conv2d_patch_into: column out of range";
    let oy = col / ow and ox = col mod ow in
    let s0 = src.off + (((oy * stride) + shift) * srow) + (ox * stride) + shift in
    let d0 = region_at dst oy + ox in
    for oc = 0 to dst.c - 1 do
      let w0 = oc * k in
      let c0 = ref (Array.unsafe_get bd oc) in
      for p = 0 to k - 1 do
        c0 :=
          !c0
          +. Array.unsafe_get wd (w0 + p)
             *. Array.unsafe_get a (s0 + Array.unsafe_get taps p)
      done;
      Array.unsafe_set a (d0 + (oc * dplane)) !c0
    done
  done

(* Equal with equal zero signs: a signed zero counts as a change and a
   NaN is never unchanged — both could change output bits. *)
let[@inline] same_bits (a : float) b = a = b && (a <> 0. || 1. /. a = 1. /. b)

let conv2d_changed_columns ~stride ~pad ~kh ~kw ~c ~h ~w ~marks ~columns x
    ~xoff reference ~roff =
  let oh = conv_out_dim h kh stride pad and ow = conv_out_dim w kw stride pad in
  let cols = oh * ow in
  if Bytes.length marks < cols || Array.length columns < cols then
    invalid_arg "Tensor.conv2d_changed_columns: scratch smaller than oh * ow";
  if
    xoff + (c * h * w) > Array.length x
    || roff + (c * h * w) > Array.length reference
  then invalid_arg "Tensor.conv2d_changed_columns: image out of range";
  Bytes.fill marks 0 cols '\000';
  let count = ref 0 in
  match
    for ic = 0 to c - 1 do
      for iy = 0 to h - 1 do
        let row = ((ic * h) + iy) * w in
        for ix = 0 to w - 1 do
          if
            not
              (same_bits
                 (Array.unsafe_get x (xoff + row + ix))
                 (Array.unsafe_get reference (roff + row + ix)))
          then begin
            (* Output (oy, ox) reads input rows oy*stride - pad + ky for
               ky in [0, kh), so the element at (iy, ix) lands in every
               window with oy in [ceil((iy+pad-kh+1)/s), floor((iy+pad)/s)]
               (columns likewise). *)
            for oy = max 0 (div_ceil (iy + pad - kh + 1) stride)
                to min (oh - 1) (div_floor (iy + pad) stride) do
              for ox = max 0 (div_ceil (ix + pad - kw + 1) stride)
                  to min (ow - 1) (div_floor (ix + pad) stride) do
                let o = (oy * ow) + ox in
                if Bytes.unsafe_get marks o = '\000' then begin
                  Bytes.unsafe_set marks o '\001';
                  incr count
                end
              done
            done;
            if 2 * !count > cols then raise_notrace Exit
          end
        done
      done
    done
  with
  | exception Exit -> -1
  | () ->
      let j = ref 0 in
      for o = 0 to cols - 1 do
        if Bytes.unsafe_get marks o <> '\000' then begin
          Array.unsafe_set columns !j o;
          incr j
        end
      done;
      !count

(* Per-plane statistics in ascending flat order, exactly as
   [channel_norm_batch] computes them: the mean, then 1/sqrt(var + eps).
   Inlined, so the floats stay unboxed. *)
let[@inline] plane_mean a r ch =
  let base = ch * region_plane r in
  let acc = ref 0. in
  for y = 0 to r.h - 1 do
    let o = base + region_at r y in
    for x = 0 to r.w - 1 do
      acc := !acc +. Array.unsafe_get a (o + x)
    done
  done;
  !acc /. float_of_int (r.h * r.w)

let[@inline] plane_istd a r ch ~mean ~eps =
  let base = ch * region_plane r in
  let vacc = ref 0. in
  for y = 0 to r.h - 1 do
    let o = base + region_at r y in
    for x = 0 to r.w - 1 do
      let d = Array.unsafe_get a (o + x) -. mean in
      vacc := !vacc +. (d *. d)
    done
  done;
  1. /. sqrt ((!vacc /. float_of_int (r.h * r.w)) +. eps)

let check_same_dims name a s d =
  check_region name a s;
  check_region name a d;
  if s.c <> d.c || s.h <> d.h || s.w <> d.w then
    invalid_arg ("Tensor." ^ name ^ ": region dims differ")

let check_pool name a ~size ~stride ~src ~dst =
  check_region name a src;
  check_region name a dst;
  if
    size < 1 || stride < 1 || dst.c <> src.c
    || dst.h <> conv_out_dim src.h size stride 0
    || dst.w <> conv_out_dim src.w size stride 0
  then invalid_arg ("Tensor." ^ name ^ ": region dims differ")

let channel_norm_into a ~gamma ~beta ~eps ~src ~dst =
  check_same_dims "channel_norm_into" a src dst;
  let sp = region_plane src and dp = region_plane dst in
  for ch = 0 to src.c - 1 do
    let mean = plane_mean a src ch in
    let istd = plane_istd a src ch ~mean ~eps in
    let gam = gamma.data.(ch) and bet = beta.data.(ch) in
    for y = 0 to src.h - 1 do
      let s = (ch * sp) + region_at src y and d = (ch * dp) + region_at dst y in
      for x = 0 to src.w - 1 do
        let xhat = (Array.unsafe_get a (s + x) -. mean) *. istd in
        Array.unsafe_set a (d + x) ((gam *. xhat) +. bet)
      done
    done
  done

(* [max_pool2d_batch (relu (channel_norm_batch src))] in one pass after
   the statistics: every window element is normalized, rectified and
   compared in the order the three kernels use, so the pooled value is
   bit-equal; elements no window covers are never normalized. *)
let norm_relu_max_pool_into a ~gamma ~beta ~eps ~size ~stride ~src ~dst =
  check_pool "norm_relu_max_pool_into" a ~size ~stride ~src ~dst;
  let sp = region_plane src and srow = region_row src
  and dp = region_plane dst in
  for ch = 0 to src.c - 1 do
    let mean = plane_mean a src ch in
    let istd = plane_istd a src ch ~mean ~eps in
    let gam = gamma.data.(ch) and bet = beta.data.(ch) in
    for oy = 0 to dst.h - 1 do
      let d = (ch * dp) + region_at dst oy in
      for ox = 0 to dst.w - 1 do
        let base = (ch * sp) + region_at src (oy * stride) + (ox * stride) in
        let best = ref neg_infinity in
        for ky = 0 to size - 1 do
          let rowb = base + (ky * srow) in
          for kx = 0 to size - 1 do
            let xhat = (Array.unsafe_get a (rowb + kx) -. mean) *. istd in
            let v = (gam *. xhat) +. bet in
            let v = if v > 0. then v else 0. in
            if v > !best then best := v
          done
        done;
        Array.unsafe_set a (d + ox) !best
      done
    done
  done

let relu_into a ~src ~dst =
  check_same_dims "relu_into" a src dst;
  let sp = region_plane src and dp = region_plane dst in
  for ch = 0 to src.c - 1 do
    for y = 0 to src.h - 1 do
      let s = (ch * sp) + region_at src y and d = (ch * dp) + region_at dst y in
      for x = 0 to src.w - 1 do
        let v = Array.unsafe_get a (s + x) in
        Array.unsafe_set a (d + x) (if v > 0. then v else 0.)
      done
    done
  done

(* The window scans of [max_pool2d] and [avg_pool2d]. *)
let max_pool_into a ~size ~stride ~src ~dst =
  check_pool "max_pool_into" a ~size ~stride ~src ~dst;
  let sp = region_plane src and srow = region_row src
  and dp = region_plane dst in
  for ch = 0 to src.c - 1 do
    for oy = 0 to dst.h - 1 do
      let d = (ch * dp) + region_at dst oy in
      for ox = 0 to dst.w - 1 do
        let base = (ch * sp) + region_at src (oy * stride) + (ox * stride) in
        let best = ref neg_infinity in
        for ky = 0 to size - 1 do
          for kx = 0 to size - 1 do
            let v = Array.unsafe_get a (base + (ky * srow) + kx) in
            if v > !best then best := v
          done
        done;
        Array.unsafe_set a (d + ox) !best
      done
    done
  done

let avg_pool_into a ~size ~stride ~src ~dst =
  check_pool "avg_pool_into" a ~size ~stride ~src ~dst;
  let sp = region_plane src and srow = region_row src
  and dp = region_plane dst in
  let inv = 1. /. float_of_int (size * size) in
  for ch = 0 to src.c - 1 do
    for oy = 0 to dst.h - 1 do
      let d = (ch * dp) + region_at dst oy in
      for ox = 0 to dst.w - 1 do
        let base = (ch * sp) + region_at src (oy * stride) + (ox * stride) in
        let acc = ref 0. in
        for ky = 0 to size - 1 do
          for kx = 0 to size - 1 do
            acc := !acc +. Array.unsafe_get a (base + (ky * srow) + kx)
          done
        done;
        Array.unsafe_set a (d + ox) (!acc *. inv)
      done
    done
  done

(* Channel means into the [src.c] consecutive elements from [dst]. *)
let global_avg_pool_into a ~src ~dst =
  check_region "global_avg_pool_into" a src;
  check_span "global_avg_pool_into" a dst src.c;
  let inv = 1. /. float_of_int (src.h * src.w) and sp = region_plane src in
  for ch = 0 to src.c - 1 do
    let acc = ref 0. in
    for y = 0 to src.h - 1 do
      let s = (ch * sp) + region_at src y in
      for x = 0 to src.w - 1 do
        acc := !acc +. Array.unsafe_get a (s + x)
      done
    done;
    Array.unsafe_set a (dst + ch) (!acc *. inv)
  done

(* [dst] <- [x] + [y], elementwise over interiors of equal dims. *)
let add_into a ~x ~y ~dst =
  check_same_dims "add_into" a x dst;
  check_same_dims "add_into" a y dst;
  let xp = region_plane x and yp = region_plane y and dp = region_plane dst in
  for ch = 0 to dst.c - 1 do
    for r = 0 to dst.h - 1 do
      let xs = (ch * xp) + region_at x r
      and ys = (ch * yp) + region_at y r
      and d = (ch * dp) + region_at dst r in
      for i = 0 to dst.w - 1 do
        Array.unsafe_set a (d + i)
          (Array.unsafe_get a (xs + i) +. Array.unsafe_get a (ys + i))
      done
    done
  done

(* [src]'s interior into [dst]'s channels [first, first + src.c). *)
let blit_into a ~src ~dst ~first =
  check_region "blit_into" a src;
  check_region "blit_into" a dst;
  if src.h <> dst.h || src.w <> dst.w || first < 0 || first + src.c > dst.c
  then invalid_arg "Tensor.blit_into: region dims differ";
  let sp = region_plane src and dp = region_plane dst in
  for ch = 0 to src.c - 1 do
    for y = 0 to src.h - 1 do
      Array.blit a ((ch * sp) + region_at src y) a
        (((first + ch) * dp) + region_at dst y)
        src.w
    done
  done

(* Dense layer on [in_dim] consecutive elements from [src] into
   [out_dim] from [dst]: each output is Σ_p weight[j, p] * x[p] in
   ascending p, then + bias — the arithmetic of [matvec] + [add]. *)
let dense_into a ~weight ~bias ~src ~dst =
  if Array.length weight.shape <> 2 || Array.length bias.data <> weight.shape.(0)
  then invalid_arg "Tensor.dense_into: weight/bias disagree";
  let out_dim = weight.shape.(0) and in_dim = weight.shape.(1) in
  check_span "dense_into" a src in_dim;
  check_span "dense_into" a dst out_dim;
  let wd = weight.data in
  for j = 0 to out_dim - 1 do
    let acc = ref 0. and off = j * in_dim in
    for p = 0 to in_dim - 1 do
      acc :=
        !acc +. (Array.unsafe_get wd (off + p) *. Array.unsafe_get a (src + p))
    done;
    Array.unsafe_set a (dst + j) (!acc +. bias.data.(j))
  done

(* Softmax of [n] consecutive elements from [src] into [dst]: max,
   exp-shift, sum, then scale by 1/z. *)
let softmax_into a ~n ~src ~dst =
  if n < 1 then invalid_arg "Tensor.softmax_into: empty row";
  check_span "softmax_into" a src n;
  check_span "softmax_into" a dst n;
  let m = ref a.(src) in
  for j = 1 to n - 1 do
    if a.(src + j) > !m then m := a.(src + j)
  done;
  let z = ref 0. in
  for j = 0 to n - 1 do
    let e = exp (a.(src + j) -. !m) in
    a.(dst + j) <- e;
    z := !z +. e
  done;
  let inv = 1. /. !z in
  for j = 0 to n - 1 do
    a.(dst + j) <- inv *. a.(dst + j)
  done

let conv2d_backward ?(stride = 1) ?(pad = 0) ~x ~weight dout =
  let in_c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let out_c = weight.shape.(0)
  and kh = weight.shape.(2)
  and kw = weight.shape.(3) in
  let oh = dout.shape.(1) and ow = dout.shape.(2) in
  let dx = zeros [| in_c; h; w |] in
  let dw = zeros (Array.copy weight.shape) in
  let db = zeros [| out_c |] in
  let xd = x.data
  and wd = weight.data
  and dod = dout.data
  and dxd = dx.data
  and dwd = dw.data in
  for oc = 0 to out_c - 1 do
    let dbacc = ref 0. in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let g = dod.((((oc * oh) + oy) * ow) + ox) in
        if g <> 0. then begin
          dbacc := !dbacc +. g;
          let iy0 = (oy * stride) - pad and ix0 = (ox * stride) - pad in
          for ic = 0 to in_c - 1 do
            let xoff = ic * h * w
            and woff = (((oc * in_c) + ic) * kh) * kw in
            for ky = 0 to kh - 1 do
              let iy = iy0 + ky in
              if iy >= 0 && iy < h then begin
                let xrow = xoff + (iy * w) and wrow = woff + (ky * kw) in
                for kx = 0 to kw - 1 do
                  let ix = ix0 + kx in
                  if ix >= 0 && ix < w then begin
                    dwd.(wrow + kx) <- dwd.(wrow + kx) +. (g *. xd.(xrow + ix));
                    dxd.(xrow + ix) <- dxd.(xrow + ix) +. (g *. wd.(wrow + kx))
                  end
                done
              end
            done
          done
        end
      done
    done;
    db.data.(oc) <- !dbacc
  done;
  (dx, dw, db)

(* Pooling *)

let max_pool2d ?stride ~size x =
  check_rank "max_pool2d" x 3;
  let stride = match stride with None -> size | Some s -> s in
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h size stride 0 and ow = conv_out_dim w size stride 0 in
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.max_pool2d: window too large";
  let out = zeros [| c; oh; ow |] in
  let switches = Array.make (c * oh * ow) 0 in
  let xd = x.data and od = out.data in
  (* [conv_out_dim] with pad 0 guarantees (oh-1)*stride + size <= h (and
     likewise for width), so every window is fully in-bounds: the scan
     runs branch- and bounds-check-free. *)
  for ch = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let best = ref neg_infinity and besti = ref 0 in
        let base = (((ch * h) + (oy * stride)) * w) + (ox * stride) in
        for ky = 0 to size - 1 do
          let rowb = base + (ky * w) in
          for kx = 0 to size - 1 do
            begin
              let idx = rowb + kx in
              let v = Array.unsafe_get xd idx in
              if v > !best then begin
                best := v;
                besti := idx
              end
            end
          done
        done;
        let oidx = (((ch * oh) + oy) * ow) + ox in
        od.(oidx) <- !best;
        switches.(oidx) <- !besti
      done
    done
  done;
  (out, switches)

let max_pool2d_backward ~x_shape ~switches dout =
  let dx = zeros x_shape in
  let dod = dout.data and dxd = dx.data in
  for i = 0 to Array.length dod - 1 do
    dxd.(switches.(i)) <- dxd.(switches.(i)) +. dod.(i)
  done;
  dx

let avg_pool2d ?stride ~size x =
  check_rank "avg_pool2d" x 3;
  let stride = match stride with None -> size | Some s -> s in
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = conv_out_dim h size stride 0 and ow = conv_out_dim w size stride 0 in
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.avg_pool2d: window too large";
  let out = zeros [| c; oh; ow |] in
  let inv = 1. /. float_of_int (size * size) in
  let xd = x.data and od = out.data in
  for ch = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref 0. in
        for ky = 0 to size - 1 do
          for kx = 0 to size - 1 do
            let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
            if iy < h && ix < w then acc := !acc +. xd.((((ch * h) + iy) * w) + ix)
          done
        done;
        od.((((ch * oh) + oy) * ow) + ox) <- !acc *. inv
      done
    done
  done;
  out

let avg_pool2d_backward ?stride ~size ~x_shape dout =
  let stride = match stride with None -> size | Some s -> s in
  let c = x_shape.(0) and h = x_shape.(1) and w = x_shape.(2) in
  let oh = dout.shape.(1) and ow = dout.shape.(2) in
  let dx = zeros x_shape in
  let inv = 1. /. float_of_int (size * size) in
  let dod = dout.data and dxd = dx.data in
  for ch = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let g = dod.((((ch * oh) + oy) * ow) + ox) *. inv in
        for ky = 0 to size - 1 do
          for kx = 0 to size - 1 do
            let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
            if iy < h && ix < w then begin
              let idx = (((ch * h) + iy) * w) + ix in
              dxd.(idx) <- dxd.(idx) +. g
            end
          done
        done
      done
    done
  done;
  dx

let global_avg_pool x =
  check_rank "global_avg_pool" x 3;
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let inv = 1. /. float_of_int (h * w) in
  init [| c |] (fun ch ->
      let acc = ref 0. and off = ch * h * w in
      for i = 0 to (h * w) - 1 do
        acc := !acc +. x.data.(off + i)
      done;
      !acc *. inv)

let global_avg_pool_backward ~x_shape dout =
  let h = x_shape.(1) and w = x_shape.(2) in
  let inv = 1. /. float_of_int (h * w) in
  init x_shape (fun i -> dout.data.(i / (h * w)) *. inv)

(* Batched (NCHW) pooling: pooling acts per channel plane, so an NCHW
   batch folds to [(n*c); h; w], runs the single-image kernel, and
   unfolds, so every tensor backend composes the identical kernels. *)

let nchw name x =
  check_rank name x 4;
  (x.shape.(0), x.shape.(1), x.shape.(2), x.shape.(3))

let fold_nc name x =
  let n, c, h, w = nchw name x in
  (n, c, reshape x [| n * c; h; w |])

let max_pool2d_batch ?stride ~size x =
  let n, c, folded = fold_nc "max_pool2d_batch" x in
  let y, _ = max_pool2d ?stride ~size folded in
  reshape y [| n; c; y.shape.(1); y.shape.(2) |]

(* Batched per-channel normalization over an NCHW tensor: each (image,
   channel) plane is standardized by its own mean and variance, then
   scaled/shifted by the per-channel [gamma]/[beta].  The plane of index
   [p] belongs to channel [p mod c].  Reductions run in ascending index
   order, so each image's planes are bit-equal to the single-image
   normalization. *)
let channel_norm_batch ~gamma ~beta ~eps x =
  let nb, c, h, w = nchw "channel_norm_batch" x in
  if gamma.shape.(0) <> c || beta.shape.(0) <> c then
    fail_shape "channel_norm_batch" x.shape gamma.shape;
  let m = float_of_int (h * w) in
  let y = zeros [| nb; c; h; w |] in
  let xd = x.data and yd = y.data in
  for plane = 0 to (nb * c) - 1 do
    let off = plane * h * w and ch = plane mod c in
    let acc = ref 0. in
    for i = 0 to (h * w) - 1 do
      acc := !acc +. Array.unsafe_get xd (off + i)
    done;
    let mean = !acc /. m in
    let vacc = ref 0. in
    for i = 0 to (h * w) - 1 do
      let d = Array.unsafe_get xd (off + i) -. mean in
      vacc := !vacc +. (d *. d)
    done;
    let istd = 1. /. sqrt ((!vacc /. m) +. eps) in
    let gam = gamma.data.(ch) and bet = beta.data.(ch) in
    for i = 0 to (h * w) - 1 do
      let xhat = (Array.unsafe_get xd (off + i) -. mean) *. istd in
      Array.unsafe_set yd (off + i) ((gam *. xhat) +. bet)
    done
  done;
  y

(* Softmax and losses *)

let softmax t =
  check_rank "softmax" t 1;
  let m = max_val t in
  let exps = map (fun v -> exp (v -. m)) t in
  let z = sum exps in
  scale (1. /. z) exps

let log_softmax t =
  check_rank "log_softmax" t 1;
  let m = max_val t in
  let z = Array.fold_left (fun acc v -> acc +. exp (v -. m)) 0. t.data in
  let logz = m +. log z in
  map (fun v -> v -. logz) t

let cross_entropy logits label =
  if label < 0 || label >= numel logits then
    invalid_arg "Tensor.cross_entropy: label out of range";
  -.(log_softmax logits).data.(label)

let cross_entropy_grad logits label =
  if label < 0 || label >= numel logits then
    invalid_arg "Tensor.cross_entropy_grad: label out of range";
  let p = softmax logits in
  p.data.(label) <- p.data.(label) -. 1.;
  p

(* Misc *)

let concat_channels ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_channels: empty list"
  | first :: _ ->
      List.iter (fun t -> check_rank "concat_channels" t 3) ts;
      let h = first.shape.(1) and w = first.shape.(2) in
      List.iter
        (fun t ->
          if t.shape.(1) <> h || t.shape.(2) <> w then
            fail_shape "concat_channels" first.shape t.shape)
        ts;
      let total_c = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
      let out = zeros [| total_c; h; w |] in
      let off = ref 0 in
      List.iter
        (fun t ->
          Array.blit t.data 0 out.data !off (numel t);
          off := !off + numel t)
        ts;
      out

let split_channels t counts =
  check_rank "split_channels" t 3;
  let h = t.shape.(1) and w = t.shape.(2) in
  let total = List.fold_left ( + ) 0 counts in
  if total <> t.shape.(0) then
    invalid_arg "Tensor.split_channels: channel counts do not sum to shape";
  let off = ref 0 in
  List.map
    (fun c ->
      let piece = zeros [| c; h; w |] in
      Array.blit t.data !off piece.data 0 (c * h * w);
      off := !off + (c * h * w);
      piece)
    counts

let equal ?(eps = 1e-9) a b =
  same_shape a b
  && (let ok = ref true in
      for i = 0 to numel a - 1 do
        if Float.abs (a.data.(i) -. b.data.(i)) > eps then ok := false
      done;
      !ok)

let pp fmt t =
  let n = numel t in
  let max_show = 16 in
  Format.fprintf fmt "Tensor%s [" (shape_to_string t.shape);
  for i = 0 to min n max_show - 1 do
    if i > 0 then Format.fprintf fmt "; ";
    Format.fprintf fmt "%g" t.data.(i)
  done;
  if n > max_show then Format.fprintf fmt "; ...(%d more)" (n - max_show);
  Format.fprintf fmt "]"

let to_string t = Format.asprintf "%a" pp t
